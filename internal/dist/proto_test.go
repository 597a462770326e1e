package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"hyperplex/internal/gen"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/mmio"
)

// frameBytes builds a valid frame around payload for test and fuzz
// seeds.
func frameBytes(t testing.TB, typ byte, payload []byte) []byte {
	t.Helper()
	e := newEnc(nil)
	e.b = append(e.b, payload...)
	var buf bytes.Buffer
	if err := writeFrame(&buf, typ, e.b); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	return buf.Bytes()
}

// payloadOf returns the payload of m's frame.
func payloadOf(m codec) []byte { return m.encode(nil)[headerLen:] }

func TestFrameRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, {1}, bytes.Repeat([]byte{0xAB}, 4096)} {
		raw := frameBytes(t, mApply, payload)
		typ, got, err := readFrame(bytes.NewReader(raw), maxFramePayload, nil)
		if err != nil {
			t.Fatalf("readFrame: %v", err)
		}
		if typ != mApply || !bytes.Equal(got, payload) {
			t.Fatalf("round-trip mismatch: typ=%d len=%d", typ, len(got))
		}
	}
}

func TestFrameRejectsCorruption(t *testing.T) {
	base := frameBytes(t, mBarrier, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	cases := map[string][]byte{
		"bad magic":   append([]byte{'z', 'z'}, base[2:]...),
		"bad version": append([]byte{'h', 'x', 99}, base[3:]...),
		"bad type":    append([]byte{'h', 'x', protoVersion, 200}, base[4:]...),
		"flipped payload": func() []byte {
			b := append([]byte(nil), base...)
			b[headerLen] ^= 0xFF
			return b
		}(),
		"flipped checksum": func() []byte {
			b := append([]byte(nil), base...)
			b[8] ^= 0xFF
			return b
		}(),
	}
	for name, raw := range cases {
		if _, _, err := readFrame(bytes.NewReader(raw), maxFramePayload, nil); !errors.Is(err, ErrCorruptFrame) {
			t.Errorf("%s: err = %v, want ErrCorruptFrame", name, err)
		}
	}
	if _, _, err := readFrame(bytes.NewReader(base[:7]), maxFramePayload, nil); err == nil {
		t.Error("truncated header accepted")
	}
	if _, _, err := readFrame(bytes.NewReader(base[:len(base)-3]), maxFramePayload, nil); err == nil {
		t.Error("truncated payload accepted")
	}
}

// TestFrameLengthCap pins the allocation-capped decode: a frame whose
// header claims a payload beyond the cap is rejected from the header
// alone, before any payload allocation.
func TestFrameLengthCap(t *testing.T) {
	hdr := make([]byte, headerLen)
	hdr[0], hdr[1], hdr[2], hdr[3] = 'h', 'x', protoVersion, mApply
	binary.LittleEndian.PutUint32(hdr[4:8], 1<<31)
	binary.LittleEndian.PutUint32(hdr[8:12], crc32.ChecksumIEEE(nil))
	_, _, err := readFrame(bytes.NewReader(hdr), 1<<20, nil)
	if !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("oversized length: err = %v, want ErrCorruptFrame", err)
	}
}

func TestMessageRoundTrips(t *testing.T) {
	load := msgLoad{
		Shards: 2,
		NumV:   5,
		EOff:   []int32{0, 3, 3, 5},
		EAdj:   []int32{0, 1, 2, 3, 4},
	}
	var load2 msgLoad
	if err := load2.decode(payloadOf(&load)); err != nil {
		t.Fatalf("load decode: %v", err)
	}
	if load2.Shards != 2 ||
		load2.NumV != 5 || !slices.Equal(load2.EOff, load.EOff) || !slices.Equal(load2.EAdj, load.EAdj) {
		t.Fatalf("load round-trip mismatch: %+v", load2)
	}

	asn := msgAssign{K: 2, Round: 5, Shards: []int32{0, 2}, Dead: []int32{9, 7}, Retired: []int32{1, 2, 3}}
	var asn2 msgAssign
	if err := asn2.decode(payloadOf(&asn)); err != nil {
		t.Fatalf("assign decode: %v", err)
	}
	if asn2.K != 2 || asn2.Round != 5 || !slices.Equal(asn2.Shards, asn.Shards) ||
		!slices.Equal(asn2.Dead, asn.Dead) || !slices.Equal(asn2.Retired, asn.Retired) {
		t.Fatalf("assign round-trip mismatch: %+v", asn2)
	}

	rd := msgRound{K: 4, Round: 9, IDs: []int32{5, -1, 7}}
	var rd2 msgRound
	if err := rd2.decode(payloadOf(&rd)); err != nil {
		t.Fatalf("round decode: %v", err)
	}
	if rd2.K != 4 || rd2.Round != 9 || len(rd2.IDs) != 3 || rd2.IDs[1] != -1 {
		t.Fatalf("round round-trip mismatch: %+v", rd2)
	}

	hello := msgHello{ID: 3}
	var hello2 msgHello
	if err := hello2.decode(payloadOf(&hello)); err != nil || hello2.ID != 3 {
		t.Fatalf("hello round-trip mismatch: %+v err=%v", hello2, err)
	}
}

// TestDecodeRejectsAllocationBombs pins the count-validated slice
// decode: a payload claiming a billion int32s with eight bytes behind
// it must fail before allocating.
func TestDecodeRejectsAllocationBombs(t *testing.T) {
	var en enc
	en.i32(1)
	en.i32(1)
	en.u32(1 << 30) // IDs count with no bytes behind it
	var m msgRound
	if err := m.decode(en.b); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("bomb count: err = %v, want ErrCorruptFrame", err)
	}
	var en2 enc
	en2.i32(0)
	en2.i32(0)
	en2.i32s([]int32{0})
	en2.u32(1 << 29) // dead log count with no bytes behind it
	var a msgAssign
	if err := a.decode(en2.b); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("log bomb: err = %v, want ErrCorruptFrame", err)
	}
	var m2 msgRound
	if err := m2.decode(append(payloadOf(&msgRound{}), 0xEE)); !errors.Is(err, ErrCorruptFrame) {
		t.Fatal("trailing garbage accepted")
	}
	var offBomb enc
	offBomb.i32(1)       // shards
	offBomb.i32(2)       // NumV
	offBomb.u32(1 << 29) // EOff count with no bytes behind it
	var l msgLoad
	if err := l.decode(offBomb.b); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("Load EOff count past the payload end: err = %v, want ErrCorruptFrame", err)
	}
	if err := l.decode(loadAdjPastEnd()); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("Load EAdj count past the payload end: err = %v, want ErrCorruptFrame", err)
	}
}

// loadAdjPastEnd is a Load payload whose EAdj count claims five
// members with two behind it.
func loadAdjPastEnd() []byte {
	var e enc
	e.i32(1) // shards
	e.i32(2) // NumV
	e.i32s([]int32{0, 1, 2})
	e.u32(5)
	e.i32(0)
	e.i32(1)
	return e.b
}

// FuzzDecodeFrame fuzzes the full inbound path: frame validation with
// a bounded payload cap, then every message decoder over the payload.
// Nothing here may panic or over-allocate, whatever the bytes.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(frameBytes(f, mHello, payloadOf(&msgHello{})))
	f.Add(frameBytes(f, mApply, payloadOf(&msgRound{K: 2, Round: 3, IDs: []int32{4, 5}})))
	f.Add(frameBytes(f, mBarrier, payloadOf(&msgRound{K: 1, Round: 1, IDs: []int32{1}})))
	f.Add(frameBytes(f, mLoad, payloadOf(&msgLoad{Shards: 1, NumV: 2, EOff: []int32{0, 2}, EAdj: []int32{0, 1}})))
	f.Add(frameBytes(f, mLoad, payloadOf(&msgLoad{Shards: 2, NumV: 2, EOff: []int32{0, 0, 2, 2}, EAdj: []int32{0, 1}})))
	f.Add(frameBytes(f, mLoad, loadAdjPastEnd()))
	f.Add(frameBytes(f, mAssign, payloadOf(&msgAssign{K: 2, Round: 3, Shards: []int32{1}, Dead: []int32{3}, Retired: []int32{2, 4}})))
	// Truncated header and payload.
	whole := frameBytes(f, mFrontier, payloadOf(&msgRound{IDs: []int32{1, 2, 3}}))
	f.Add(whole[:5])
	f.Add(whole[:len(whole)-2])
	// Oversized claimed length.
	over := append([]byte(nil), whole...)
	binary.LittleEndian.PutUint32(over[4:8], 1<<30)
	f.Add(over)
	// Corrupt checksum.
	bad := append([]byte(nil), whole...)
	bad[8] ^= 0x40
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := readFrame(bytes.NewReader(data), 1<<20, nil)
		if err != nil {
			if payload != nil && err == io.EOF {
				t.Fatal("payload returned alongside an error")
			}
			return
		}
		// A structurally valid frame: every decoder must handle the
		// payload without panicking, whatever the type byte says.
		_ = typ
		var (
			h msgHello
			l msgLoad
			a msgAssign
			r msgRound
		)
		_ = h.decode(payload)
		_ = l.decode(payload)
		_ = a.decode(payload)
		_ = r.decode(payload)
	})
}

// TestFuzzSeedsAtProtoVersion requires every recorded seed-* input of
// FuzzDecodeFrame to be a frame of the current protocol version:
// readFrame rejects any other version before a decoder runs, so a seed
// left behind by a version bump would stop covering the decoders.
func TestFuzzSeedsAtProtoVersion(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzDecodeFrame", "seed-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no seed-* inputs recorded for FuzzDecodeFrame")
	}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		body, ok := strings.CutPrefix(string(raw), "go test fuzz v1\n[]byte(")
		body, ok2 := strings.CutSuffix(strings.TrimSpace(body), ")")
		frame, err := strconv.Unquote(body)
		if !ok || !ok2 || err != nil {
			t.Errorf("%s: not one []byte fuzz input: %v", path, err)
			continue
		}
		if len(frame) < 3 || frame[:2] != string(frameMagic[:]) || frame[2] != protoVersion {
			t.Errorf("%s: %q is not a frame of protocol version %d", path, frame[:min(len(frame), 3)], protoVersion)
		}
	}
}

// codec is the encode/decode pair every message type carries.
type codec interface {
	encode([]byte) []byte
	decode([]byte) error
}

// goldenFrames is one frame per frame type, with its bytes as recorded
// from protocol version 7.  The bytes are the interoperability
// contract between builds: a coordinator and hgshardd workers built
// from different sources must frame identically, so a codec change
// that moves any byte here needs a protoVersion bump instead.
var goldenFrames = []struct {
	name  string
	typ   byte
	msg   codec // nil: an empty payload
	empty func() codec
	hex   string
}{
	{"Hello", mHello, &msgHello{ID: 3}, func() codec { return &msgHello{} },
		"6878070104000000f270f13303000000"},
	{"Load", mLoad, &msgLoad{Shards: 2, NumV: 5,
		EOff: []int32{0, 3, 3, 5}, EAdj: []int32{0, 1, 2, 3, 4}}, func() codec { return &msgLoad{} },
		"68780702340000006457647d02000000050000000400000000000000030000000300000005000000050000000000000001000000020000000300000004000000"},
	{"Assign", mAssign, &msgAssign{K: 2, Round: 5, Shards: []int32{0, 2},
		Dead: []int32{9, 6}, Retired: []int32{1, 2, 3}}, func() codec { return &msgAssign{} },
		"687807033000000065f2c380020000000500000002000000000000000200000002000000090000000600000003000000010000000200000003000000"},
	{"Apply", mApply, &msgRound{K: 4, Round: 9, IDs: []int32{5, -1, 7}}, func() codec { return &msgRound{} },
		"687807041800000046621a8404000000090000000300000005000000ffffffff07000000"},
	{"Frontier", mFrontier, &msgRound{K: 4, Round: 9, IDs: []int32{2, 3}}, func() codec { return &msgRound{} },
		"68780705140000000648e8200400000009000000020000000200000003000000"},
	{"Shrink", mShrink, &msgRound{K: 4, Round: 10, IDs: []int32{2, 3}}, func() codec { return &msgRound{} },
		"6878070614000000f4fc2009040000000a000000020000000200000003000000"},
	{"Barrier", mBarrier, &msgRound{K: 3, Round: 12, IDs: []int32{6, 8}}, func() codec { return &msgRound{} },
		"687807071400000078babee8030000000c000000020000000600000008000000"},
	{"Heartbeat", mHeartbeat, nil, nil, "687807080000000000000000"},
	{"Shutdown", mShutdown, nil, nil, "687807090000000000000000"},
}

// TestGoldenFrames pins the wire bytes of one frame per frame type, and
// that decoding the golden bytes and encoding the message again
// reproduces them.
func TestGoldenFrames(t *testing.T) {
	seen := make(map[byte]bool)
	for _, g := range goldenFrames {
		seen[g.typ] = true
		var payload []byte
		if g.msg != nil {
			payload = payloadOf(g.msg)
		}
		if got := hex.EncodeToString(frameBytes(t, g.typ, payload)); got != g.hex {
			t.Errorf("%s frame:\n got %s\nwant %s", g.name, got, g.hex)
			continue
		}
		raw, _ := hex.DecodeString(g.hex)
		typ, body, err := readFrame(bytes.NewReader(raw), maxFramePayload, nil)
		if err != nil || typ != g.typ {
			t.Errorf("%s frame: read type %d, err %v", g.name, typ, err)
			continue
		}
		if g.msg == nil {
			if len(body) != 0 {
				t.Errorf("%s frame: %d payload bytes, want none", g.name, len(body))
			}
			continue
		}
		m := g.empty()
		if err := m.decode(body); err != nil {
			t.Errorf("%s frame: decode: %v", g.name, err)
			continue
		}
		if !bytes.Equal(payloadOf(m), body) {
			t.Errorf("%s frame: decode then encode does not reproduce the payload", g.name)
		}
	}
	for typ := mHello; typ < mTypeMax; typ++ {
		if !seen[typ] {
			t.Errorf("frame type %d has no golden frame", typ)
		}
	}
}

// bandedLoad is the Load frame of the banded 8000×8000 benchmark
// instance (seed 0xBE) over 2 shards, as the coordinator ships it.
func bandedLoad(t *testing.T) (*msgLoad, *hypergraph.Hypergraph) {
	t.Helper()
	h, err := mmio.ToHypergraph(gen.SyntheticMatrix(gen.MatrixSpec{Name: "bench", Rows: 8000, Cols: 8000, Band: 10, BandFill: 0.7, RandomPerRow: 2, Seed: 0xBE}))
	if err != nil {
		t.Fatal(err)
	}
	g := h.CSR()
	return &msgLoad{Shards: 2, NumV: int32(h.NumVertices()), EOff: g.EOff, EAdj: g.EAdj}, h
}

// TestCodecAllocs pins the allocations of the codec: a slice of 10k
// int32s grows the payload at most once, the banded Load encodes into
// one buffer sized up front, and decoding it makes two allocations,
// the row offsets and the flat member array, not one per row.
// The per-round frames and a recovery Assign cost nothing once warm:
// msgRound and msgAssign encode into a warm frame buffer, readFrame
// reads into a warm payload buffer, and both decode into warm
// messages, with no allocation.
func TestCodecAllocs(t *testing.T) {
	xs := make([]int32, 10000)
	var e enc
	if a := testing.AllocsPerRun(20, func() {
		e.b = nil
		e.i32s(xs)
	}); a > 1 {
		t.Errorf("enc.i32s of %d values made %v allocations, want at most 1", len(xs), a)
	}
	load, h := bandedLoad(t)
	if a := testing.AllocsPerRun(5, func() { _ = load.encode(nil) }); a != 1 {
		t.Errorf("msgLoad.encode of the banded Load made %v allocations, want 1", a)
	}
	payload := payloadOf(load)
	var got msgLoad
	if a := testing.AllocsPerRun(5, func() {
		if err := got.decode(payload); err != nil {
			t.Fatal(err)
		}
	}); a != 2 {
		t.Errorf("msgLoad.decode of the banded Load (%d rows) made %v allocations, want 2", h.NumEdges(), a)
	}
	if !slices.Equal(got.EOff, load.EOff) || !slices.Equal(got.EAdj, load.EAdj) || cap(got.EAdj) != len(got.EAdj) {
		t.Fatalf("decoded rows differ from the shipped ones, or the member array (cap %d) is not at capacity %d", cap(got.EAdj), len(got.EAdj))
	}

	ids := make([]int32, 3000)
	round := msgRound{K: 3, Round: 4, IDs: ids}
	assign := msgAssign{K: 3, Round: 4, Shards: []int32{0, 1}, Dead: ids, Retired: make([]int32, 4000)}
	for _, m := range []struct {
		name      string
		typ       byte
		msg, warm codec
	}{{"msgRound", mFrontier, &round, &msgRound{}}, {"msgAssign", mAssign, &assign, &msgAssign{}}} {
		buf := m.msg.encode(nil)
		if a := testing.AllocsPerRun(20, func() { buf = m.msg.encode(buf) }); a != 0 {
			t.Errorf("%s.encode into a warm buffer made %v allocations, want 0", m.name, a)
		}
		raw := frameBytes(t, m.typ, buf[headerLen:])
		r := bytes.NewReader(raw)
		_, in, err := readFrame(r, maxFramePayload, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(20, func() {
			r.Reset(raw)
			if _, in, err = readFrame(r, maxFramePayload, in); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("readFrame of a %s frame into a warm buffer made %v allocations, want 0", m.name, a)
		}
		if err := m.warm.decode(in); err != nil {
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(20, func() {
			if err := m.warm.decode(in); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("%s.decode into a warm message made %v allocations, want 0", m.name, a)
		}
	}
}
