// Package dist executes the sharded core decomposition across OS
// processes: a coordinator ships the hypergraph and a shard count to
// worker processes over a length-prefixed binary wire protocol, every
// process builds the same partition from them, and the coordinator
// drives the bulk-synchronous rounds with broadcast deltas (dying
// hyperedges, retired vertices).  A round is two round
// trips: Apply → Frontier, whose vote carries each worker's retired
// vertices, and Shrink → Barrier, whose vote carries the hyperedges
// its shards found dying.  The coordinator logs the deltas of every
// committed round, and a worker gets its shards one way: an Assign
// carrying those logs (empty at the first deal), from which it rebuilds
// its replica, answered by a Barrier vote.  Workers that die —
// connection error, missed heartbeats, corrupt frame, injected fault —
// have their shards reassigned to survivors, each of which gets such
// an Assign, and the round replays from the last committed barrier;
// with Options.LocalFallback an unrecoverable pool collapses the run
// onto the in-process sharded engine instead of failing.  The peel
// itself is internal/core's DistPeeler, whose broadcast schedule
// reproduces Decompose's coreness exactly; the coordinator records
// that coreness from the deltas it broadcasts, so no coreness crosses
// the wire.
package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"hyperplex/internal/csr"
	"hyperplex/internal/failpoint"
)

// fpSend fires before every frame write, so chaos tests can fail a
// send; a failed send is the death of the worker it was for or from.
var fpSend = failpoint.Register("dist.send")

// fpRecv fires before every frame read, so chaos tests can fail or
// stall the receive path of either end.
var fpRecv = failpoint.Register("dist.recv")

// Wire format: every frame is a 12-byte header followed by a payload,
// written with one Write.
//
//	offset 0: magic "hx"
//	offset 2: protocol version (protoVersion)
//	offset 3: frame type
//	offset 4: payload length, uint32 little-endian
//	offset 8: CRC32 (IEEE) of the payload
//
// The decoder validates magic, version, type and length against a hard
// cap before allocating, and the checksum after reading, so a corrupt
// or adversarial peer costs at most one bounded allocation and
// surfaces as ErrCorruptFrame — never a crash or an allocation bomb.
// Inside payloads every slice is count-prefixed, and the count is
// validated against the bytes actually present before the slice is
// allocated (the same allocation-capped discipline as the mmio and
// pajek readers).
//
// A frame carries only what its receiver cannot derive: Load carries
// the shard count and the hypergraph's two flat CSR arrays, from which
// the worker builds the coordinator's partition itself; Hello carries
// only the worker ID, since the header already carries the version;
// and a Frontier vote carries only the retired IDs, since
// core.RunRounds counts the alive vertices off them.  No frame carries
// an epoch: the coordinator reads every survivor's vote of a round
// before it recovers, so no reply is ever stale.  And no frame reports
// a failure: a worker that fails closes its connection, which the
// coordinator reads as its death.  Version 6 led every payload but
// Hello's with an epoch and had an Error frame.  Version 5 shipped shard
// descriptors and per-row member counts in Load, a version in Hello
// and an alive count in every Frontier vote.  Version 4's Assign also
// carried a list of shards to set up fresh, beside the list to
// restore.  Version 3 had Rollback frames and snapshot votes; version 2
// also ended a run with Finish and Result frames; version 1 also had
// Retire and Retired frames for the retired delta.  Each version
// refuses the others.
const (
	protoVersion = 7
	headerLen    = 12
	// maxFramePayload caps a frame's payload allocation.  The largest
	// legitimate frame is the Load graph blob; 1 GiB leaves room for
	// hypergraphs far beyond the in-RAM engines while still bounding a
	// hostile length field.
	maxFramePayload = 1 << 30
)

var frameMagic = [2]byte{'h', 'x'}

// Frame types.  Every worker→coordinator frame but a heartbeat is the
// reply the coordinator awaits.
//
//hyperplexvet:wiretypes
const (
	mHello     = byte(iota + 1) // w→c: the worker ID
	mLoad                       // c→w: shard count + the hypergraph's CSR rows
	mAssign                     // c→w: the logs and the shards to restore the replica from
	mApply                      // c→w: apply dying delta at threshold k, gather the frontier
	mFrontier                   // w→c: the frontier's retired vertex IDs
	mShrink                     // c→w: apply retired delta, re-check shrunk edges
	mBarrier                    // w→c: the dying hyperedge IDs its shards found or re-derived
	mHeartbeat                  // w→c: liveness beacon
	mShutdown                   // c→w: exit cleanly
	mTypeMax
)

// ErrCorruptFrame reports a frame that failed structural validation or
// its checksum; the connection it arrived on is unusable afterwards.
var ErrCorruptFrame = errors.New("dist: corrupt frame")

// writeFrame fills in the header of frame, a frame built by enc (its
// first headerLen bytes are the header's room, the rest the payload),
// and writes the whole frame with one Write.  The failpoint fires
// before any bytes hit the wire, so an injected failure never
// half-writes.
//
//hyperplexvet:wiresend
func writeFrame(w io.Writer, typ byte, frame []byte) error {
	if err := failpoint.Inject(fpSend); err != nil {
		return fmt.Errorf("dist: send: %w", err)
	}
	payload := frame[headerLen:]
	if len(payload) > maxFramePayload {
		return fmt.Errorf("dist: send: %d-byte payload exceeds the %d cap", len(payload), maxFramePayload)
	}
	frame[0], frame[1] = frameMagic[0], frameMagic[1]
	frame[2] = protoVersion
	frame[3] = typ
	binary.LittleEndian.PutUint32(frame[4:8], lenU32(len(payload)))
	binary.LittleEndian.PutUint32(frame[8:12], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("dist: send: %w", err)
	}
	return nil
}

// readFrame reads and validates one frame into buf's storage, which
// it overwrites, and returns its type and payload.  A frame that does
// not fit in cap(buf) gets a fresh buffer of its exact size, so a
// caller that keeps the returned payload's storage for the next read
// stops allocating once its buffer holds its largest frame.
// maxPayload further restricts the global cap for peers that should
// never send large frames.
func readFrame(r io.Reader, maxPayload uint32, buf []byte) (typ byte, payload []byte, err error) {
	if err := failpoint.Inject(fpRecv); err != nil {
		return 0, nil, fmt.Errorf("dist: recv: %w", err)
	}
	hdr := sized(buf, headerLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, fmt.Errorf("dist: recv: %w", err)
	}
	if hdr[0] != frameMagic[0] || hdr[1] != frameMagic[1] {
		return 0, nil, fmt.Errorf("%w: bad magic %q", ErrCorruptFrame, hdr[:2])
	}
	if hdr[2] != protoVersion {
		return 0, nil, fmt.Errorf("%w: protocol version %d, want %d", ErrCorruptFrame, hdr[2], protoVersion)
	}
	typ = hdr[3]
	if typ == 0 || typ >= mTypeMax {
		return 0, nil, fmt.Errorf("%w: unknown frame type %d", ErrCorruptFrame, typ)
	}
	n := binary.LittleEndian.Uint32(hdr[4:8])
	if n > maxPayload {
		return 0, nil, fmt.Errorf("%w: %d-byte payload exceeds the %d cap", ErrCorruptFrame, n, maxPayload)
	}
	sum := binary.LittleEndian.Uint32(hdr[8:12])
	// The header has been read out, so the payload may overwrite it.
	payload = sized(hdr, int(n))
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("dist: recv: %w", err)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return 0, nil, fmt.Errorf("%w: payload checksum mismatch", ErrCorruptFrame)
	}
	return typ, payload, nil
}

// sized returns b's storage cut to n bytes, or a fresh n-byte slice
// when b's capacity is short.
func sized(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

// lenU32 narrows a length or count for the wire.  Routing it through
// csr.MustInt32 fails loudly instead of truncating: a count beyond the
// int32 index space cannot have come from a well-formed in-memory
// structure, so framing it would only smuggle the corruption across
// the connection.
func lenU32(n int) uint32 {
	return uint32(csr.MustInt32(n))
}

// enc is an append-only frame builder.  Its buffer starts with
// headerLen bytes of room, which writeFrame fills in, so header and
// payload leave in one Write; the payload is appended after them.
type enc struct{ b []byte }

// newEnc starts an empty frame in buf's storage, which it overwrites.
func newEnc(buf []byte) enc { return enc{b: append(buf[:0], make([]byte, headerLen)...)} }

func (e *enc) u32(x uint32) {
	e.b = binary.LittleEndian.AppendUint32(e.b, x)
}
func (e *enc) i32(x int32) { e.u32(uint32(x)) }

// i32s appends a count-prefixed int32 slice, growing the payload at
// most once and writing the values in place.
func (e *enc) i32s(xs []int32) {
	n, size := len(e.b), 4+4*len(xs)
	if cap(e.b)-n < size {
		b := make([]byte, n, 2*cap(e.b)+size)
		copy(b, e.b)
		e.b = b
	}
	e.b = e.b[:n+size]
	binary.LittleEndian.PutUint32(e.b[n:], lenU32(len(xs)))
	out := e.b[n+4:]
	for i, x := range xs {
		binary.LittleEndian.PutUint32(out[4*i:], uint32(x))
	}
}

// dec is a bounds-checked payload reader: every count is validated
// against the bytes still present before anything is allocated, and
// the first error sticks.  Nothing it returns aliases the payload: a
// payload buffer may be reused for the next read as soon as its
// message is decoded.
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCorruptFrame, fmt.Sprintf(format, args...))
	}
}

func (d *dec) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 4 {
		d.fail("truncated u32")
		return 0
	}
	x := binary.LittleEndian.Uint32(d.b[:4])
	d.b = d.b[4:]
	return x
}

func (d *dec) i32() int32 { return int32(d.u32()) }

// i32s reads a count-prefixed int32 slice into dst's storage, which
// it overwrites, growing it only when it is short.
func (d *dec) i32s(dst []int32) []int32 {
	n := d.u32()
	if d.err != nil {
		return dst[:0]
	}
	if uint64(n)*4 > uint64(len(d.b)) {
		d.fail("int32 slice count %d exceeds %d remaining bytes", n, len(d.b))
		return dst[:0]
	}
	out := dst[:0]
	if cap(out) < int(n) {
		out = make([]int32, n)
	}
	out = out[:n]
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(d.b[4*i:]))
	}
	d.b = d.b[4*n:]
	return out
}

// done returns the sticky error, or complains about trailing garbage.
func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorruptFrame, len(d.b))
	}
	return nil
}

// Every message type encodes itself as a whole frame, header room
// included, into the storage of the buffer it is handed (overwriting
// it; nil allocates) and returns the frame, so a sender that keeps the
// returned frame for its next message stops allocating once the buffer
// holds its largest frame.  decode overwrites the message from a
// payload, reusing the storage of its slices, and keeps no reference
// to the payload.

// msgHello is the worker's join handshake: the worker ID the spawner
// assigned it.  The ID is what lets the coordinator pair an accepted
// connection with the process it spawned — dial order is not spawn
// order.
type msgHello struct {
	ID int32
}

func (m *msgHello) encode(buf []byte) []byte {
	e := newEnc(buf)
	e.i32(m.ID)
	return e.b
}

func (m *msgHello) decode(b []byte) error {
	d := dec{b: b}
	m.ID = d.i32()
	return d.done()
}

// msgLoad ships the problem: the shard count and the hypergraph
// structure as its CSR's edge side, two flat count-prefixed arrays.
// IDs — not names — are what the decomposition consumes, so the
// structural encoding keeps every worker's vertex and hyperedge
// numbering bit-identical to the coordinator's, and the partition,
// a function of the structure and the shard count, comes out the same
// when the worker builds it.  Unlike the other messages, decode
// allocates fresh arrays, exactly sized: the worker hands them to
// hypergraph.FromRows, which validates them and builds the replica's
// hypergraph in place.
type msgLoad struct {
	Shards int32
	NumV   int32
	// The member vertex IDs of hyperedge f, in edge order, are
	// EAdj[EOff[f]:EOff[f+1]].
	EOff, EAdj []int32
}

func (m *msgLoad) encode(buf []byte) []byte {
	if size := headerLen + 4*4 + 4*len(m.EOff) + 4*len(m.EAdj); cap(buf) < size {
		buf = make([]byte, 0, size)
	}
	e := newEnc(buf)
	e.i32(m.Shards)
	e.i32(m.NumV)
	e.i32s(m.EOff)
	e.i32s(m.EAdj)
	return e.b
}

func (m *msgLoad) decode(b []byte) error {
	d := dec{b: b}
	m.Shards = d.i32()
	m.NumV = d.i32()
	m.EOff = d.i32s(nil)
	m.EAdj = d.i32s(nil)
	return d.done()
}

// msgAssign hands a worker its shards by resetting its replica to
// barrier (K, Round): Dead and Retired are the coordinator's logs,
// every hyperedge the committed rounds killed and every vertex they
// retired up to that barrier (both empty for the first assignment, at
// barrier (0, 0)), and Shards lists every shard the worker owns from
// then on.  The worker rebuilds its replica from the logs and answers
// with a Barrier vote for (K, Round), the dying hyperedges of its
// shards there.
type msgAssign struct {
	K       int32
	Round   int32
	Shards  []int32
	Dead    []int32
	Retired []int32
}

func (m *msgAssign) encode(buf []byte) []byte {
	e := newEnc(buf)
	e.i32(m.K)
	e.i32(m.Round)
	e.i32s(m.Shards)
	e.i32s(m.Dead)
	e.i32s(m.Retired)
	return e.b
}

func (m *msgAssign) decode(b []byte) error {
	d := dec{b: b}
	m.K = d.i32()
	m.Round = d.i32()
	m.Shards = d.i32s(m.Shards)
	m.Dead = d.i32s(m.Dead)
	m.Retired = d.i32s(m.Retired)
	return d.done()
}

// msgRound is the shared shape of the per-round frames: Apply and
// Shrink carry a delta, a Frontier vote carries the worker's part of
// the retired delta, and a Barrier vote its part of the next round's
// dying delta.
type msgRound struct {
	K     int32
	Round int32
	IDs   []int32 // dying (Apply, Barrier) or retired (Frontier, Shrink)
}

func (m *msgRound) encode(buf []byte) []byte {
	e := newEnc(buf)
	e.i32(m.K)
	e.i32(m.Round)
	e.i32s(m.IDs)
	return e.b
}

func (m *msgRound) decode(b []byte) error {
	d := dec{b: b}
	m.K = d.i32()
	m.Round = d.i32()
	m.IDs = d.i32s(m.IDs)
	return d.done()
}
