package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os/exec"
	"slices"
	"sync"
	"testing"
	"time"

	"hyperplex/internal/core"
	"hyperplex/internal/dataset"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/partition"
)

// countConn is a connection that checks and tallies the frames crossing
// it.  Every Write must carry exactly one whole frame; the bytes Read
// are split back into frames, so both directions are counted by type.
type countConn struct {
	net.Conn
	mu         sync.Mutex
	writes     int
	bad        []string // Writes that were not exactly one frame
	sent, recv [mTypeMax]int
	pending    []byte // bytes read but not yet a whole frame
}

// frameLen returns the length of the whole frame b starts with, or -1
// when b is too short to hold its header.
func frameLen(b []byte) int {
	if len(b) < headerLen {
		return -1
	}
	return headerLen + int(binary.LittleEndian.Uint32(b[4:8]))
}

func (c *countConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	if n := frameLen(p); n != len(p) || p[3] == 0 || p[3] >= mTypeMax {
		c.bad = append(c.bad, fmt.Sprintf("write %d: %d bytes, not one frame", c.writes, len(p)))
	} else {
		c.sent[p[3]]++
	}
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.pending = append(c.pending, p[:n]...)
	for n := frameLen(c.pending); n >= 0 && n <= len(c.pending); n = frameLen(c.pending) {
		c.recv[c.pending[3]]++
		c.pending = c.pending[n:]
	}
	c.mu.Unlock()
	return n, err
}

// counts returns a copy of the tallies.
func (c *countConn) counts() (writes int, bad []string, sent, recv [mTypeMax]int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes, append([]string(nil), c.bad...), c.sent, c.recv
}

// bufioReader reads b through a buffered reader, as both ends read
// their connections.
func bufioReader(b []byte) *bufio.Reader { return bufio.NewReader(bytes.NewReader(b)) }

// nopConn accepts every Write and Close and holds nothing.
type nopConn struct{ net.Conn }

func (nopConn) Write(p []byte) (int, error) { return len(p), nil }
func (nopConn) Close() error                { return nil }

// TestTransportOneWritePerFrame pins that every frame leaves in one
// Write: each frame the coordinator broadcasts, its teardown's
// Shutdown, and a worker's heartbeats and Error report.
func TestTransportOneWritePerFrame(t *testing.T) {
	cc := &countConn{Conn: nopConn{}}
	c := &coordinator{ctx: context.Background(), done: make(chan struct{}), workers: []*remoteWorker{{id: 0, conn: cc}}}
	toWorker := map[byte]bool{mLoad: true, mAssign: true, mApply: true, mShrink: true}
	for _, g := range goldenFrames {
		if toWorker[g.typ] {
			if err := c.broadcast(g.typ, g.msg.encode(nil)); err != nil {
				t.Fatalf("%s broadcast: %v", g.name, err)
			}
		}
	}
	c.teardown()
	writes, bad, sent, _ := cc.counts()
	if len(bad) != 0 || writes != len(toWorker)+1 {
		t.Fatalf("coordinator: %d writes for %d frames, bad: %v", writes, len(toWorker)+1, bad)
	}
	for typ := range toWorker {
		if sent[typ] != 1 {
			t.Errorf("coordinator sent %d frames of type %d, want 1", sent[typ], typ)
		}
	}
	if sent[mShutdown] != 1 {
		t.Errorf("teardown sent %d Shutdown frames, want 1", sent[mShutdown])
	}

	wc := &countConn{Conn: nopConn{}}
	w := &workerState{conn: wc, opts: WorkerOptions{HeartbeatInterval: time.Millisecond}}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.heartbeatLoop(context.Background(), stop)
	}()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if _, _, sent, _ := wc.counts(); sent[mHeartbeat] >= 3 {
			break
		}
	}
	close(stop)
	<-done
	w.report(errors.New("shard exploded"))
	writes, bad, sent, _ = wc.counts()
	if sent[mHeartbeat] < 3 || sent[mError] != 1 || len(bad) != 0 || writes != sent[mHeartbeat]+1 {
		t.Fatalf("worker: %d writes for %d heartbeats and %d Error frames, bad: %v", writes, sent[mHeartbeat], sent[mError], bad)
	}
}

// bareCoordinator is a coordinator over a two-shard partition, one
// shard per worker, whose connections swallow every frame: a test plays
// the workers by queueing their replies on the frames channels.
func bareCoordinator(t *testing.T, part *partition.Partition) *coordinator {
	c := &coordinator{ctx: context.Background(), done: make(chan struct{}), part: part, owner: []int{0, 1},
		opts: Options{HeartbeatInterval: 50 * time.Millisecond, PhaseTimeout: 5 * time.Second},
		seen: make([]int32, max(len(part.VertexOwner), len(part.EdgeOwner)))}
	for id := range c.owner {
		rw := &remoteWorker{id: id, conn: nopConn{}, frames: make(chan frameMsg, 1)}
		rw.lastBeat.Store(time.Now().UnixNano())
		c.workers = append(c.workers, rw)
	}
	t.Cleanup(c.teardown)
	return c
}

// TestCoordinatorChecksVotedIDs feeds the coordinator Frontier and
// Barrier votes that name IDs outside what the voter owns: a retired
// vertex below 0, at |V| or in the other worker's shard, and a dying
// hyperedge below 0, at |F| or owned by the other worker's shard.  core.RunRounds indexes the coreness arrays with these
// IDs, and the next broadcast would hand them to every worker, so each
// vote must kill its worker with errWorkerLost instead.  So must a vote
// that names an owned ID twice: every worker's Shrink would retire a
// repeated vertex twice, and Apply would lower a repeated hyperedge's
// member degrees twice.  Votes that name owned IDs once pass.
func TestCoordinatorChecksVotedIDs(t *testing.T) {
	h := dataset.Cellzome().H
	nv, ne := int32(h.NumVertices()), int32(h.NumEdges())
	part := partition.Build(h, 2)
	first := func(owner []int32, shard int32) int32 {
		for id, s := range owner {
			if s == shard {
				return int32(id)
			}
		}
		t.Fatalf("shard %d owns no ID", shard)
		return -1
	}
	own0, own1 := first(part.VertexOwner, 0), first(part.VertexOwner, 1)
	edge0, edge1 := first(part.EdgeOwner, 0), first(part.EdgeOwner, 1)
	vote := func(rw *remoteWorker, m codec, typ byte) {
		rw.frames <- frameMsg{typ: typ, payload: payloadOf(m)}
	}

	for _, bad := range []int32{-1, nv, own1, own0} {
		c := bareCoordinator(t, part)
		vote(c.workers[0], &msgRound{K: 1, IDs: []int32{own0, bad}}, mFrontier)
		if _, err := c.Apply(context.Background(), 1, nil); !errors.Is(err, errWorkerLost) || !c.workers[0].dead {
			t.Errorf("Frontier vote retiring vertex %d: err = %v, worker dead %v; want errWorkerLost and a dead worker", bad, err, c.workers[0].dead)
		}
	}
	c := bareCoordinator(t, part)
	vote(c.workers[0], &msgRound{K: 1, IDs: []int32{own0}}, mFrontier)
	vote(c.workers[1], &msgRound{K: 1, IDs: []int32{own1}}, mFrontier)
	if retired, err := c.Apply(context.Background(), 1, nil); err != nil || !slices.Equal(retired, []int32{own0, own1}) {
		t.Errorf("owned votes: retired %v, err %v; want [%d %d], nil", retired, err, own0, own1)
	}

	barrier := func(dying ...int32) *msgRound { return &msgRound{K: 1, Round: 1, IDs: dying} }
	for _, bad := range []int32{-1, ne, edge1, edge0} {
		c := bareCoordinator(t, part)
		vote(c.workers[0], barrier(edge0, bad), mBarrier)
		if err := c.awaitBarrier(c.workers[0], 1, 1); !errors.Is(err, errWorkerLost) || !c.workers[0].dead {
			t.Errorf("Barrier vote with dying hyperedge %d: err = %v, worker dead %v; want errWorkerLost and a dead worker", bad, err, c.workers[0].dead)
		}
	}
	c = bareCoordinator(t, part)
	vote(c.workers[0], barrier(edge0), mBarrier)
	if err := c.awaitBarrier(c.workers[0], 1, 1); err != nil || !slices.Equal(c.spareDying, []int32{edge0}) {
		t.Errorf("owned Barrier vote: dying union %v, err %v; want [%d], nil", c.spareDying, err, edge0)
	}
}

// servedRun runs DecomposeCtx of h over 2 workers whose connections
// the test serves through countConns: the coordinator spawns a command
// that exits at once, and the test dials its listener and runs serve
// for worker IDs 0 and 1.  onBarrier is the run's OnBarrier, given the
// count of barriers committed so far.  It returns the decomposition,
// each worker's connection and what serve returned for it, and the
// count of committed barriers.
func servedRun(t *testing.T, h *hypergraph.Hypergraph, onBarrier func(n int, kill func(int)),
	serve func(ctx context.Context, id int, conn net.Conn) error) (*core.Decomposition, []*countConn, []error, int) {
	t.Helper()
	noop, err := exec.LookPath("true")
	if err != nil {
		t.Skipf("no true command to stand in for the worker processes: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	barriers := 0
	opts := Options{Workers: 2, Shards: 2, WorkerCommand: []string{noop}, Listen: addr,
		HeartbeatInterval: time.Second, PhaseTimeout: 10 * time.Second}
	opts.OnBarrier = func(_, _ int32, kill func(int)) {
		barriers++
		if onBarrier != nil {
			onBarrier(barriers, kill)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	conns := make([]*countConn, 2)
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	for id := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var conn net.Conn
			for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
				if conn, errs[id] = net.Dial("tcp", addr); errs[id] == nil {
					break
				}
			}
			if errs[id] != nil {
				return
			}
			conns[id] = &countConn{Conn: conn}
			errs[id] = serve(ctx, id, conns[id])
			conn.Close()
		}()
	}
	d, err := DecomposeCtx(ctx, h, opts)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for id, conn := range conns {
		if conn == nil {
			t.Fatalf("worker %d never connected: %v", id, errs[id])
		}
	}
	assertExact(t, h, d, "served run")
	return d, conns, errs, barriers
}

// serveWorker is servedRun's worker: ServeWorker with heartbeats fast
// enough to interleave with the replies.
func serveWorker(ctx context.Context, id int, conn net.Conn) error {
	return ServeWorker(ctx, conn, WorkerOptions{ID: id, HeartbeatInterval: time.Millisecond})
}

// frames returns the frames that crossed cc by type, both directions,
// heartbeats aside, and fails t if a Write carried anything but one
// whole frame.
func frames(t *testing.T, id int, cc *countConn) [mTypeMax]int {
	t.Helper()
	_, bad, sent, got := cc.counts()
	if len(bad) != 0 {
		t.Errorf("worker %d: writes that were not one frame: %v", id, bad)
	}
	for typ, n := range sent {
		got[typ] += n
	}
	got[mHeartbeat] = 0
	return got
}

// TestTransportFramesPerBarrier runs Cellzome over 2 workers served by
// the test (servedRun).  Every frame a worker writes must be one
// Write, and, heartbeats aside, each worker's frames must be Hello,
// Load, Assign and its Barrier vote, an Apply and its Frontier vote per
// round, a Shrink and its Barrier vote per committed barrier, and
// Shutdown: the coordinator records the result itself, so no frame
// carries it.  So a round that ends at a committed barrier costs 8
// frames at 2 workers, and a level fixpoint's Apply 4; there is one
// fixpoint per level, MaxK + 1 in all.  The killed arm severs worker
// 1 at the fifth committed barrier: the survivor's recovery costs one
// Assign, which carries the logs it rebuilds its replica from, the
// Barrier vote that answers it, with which the coordinator commits the
// fifth barrier again, and the Apply it answered before the death was
// noticed, which it is sent again; it gets no second Load.
func TestTransportFramesPerBarrier(t *testing.T) {
	h := dataset.Cellzome().H
	d, conns, errs, barriers := servedRun(t, h, nil, serveWorker)
	b := barriers - 1 // barrier (0, 0) commits the assignment, not a round
	applies := b + d.MaxK + 1
	if b <= 0 {
		t.Fatalf("%d barriers committed", barriers)
	}
	want := [mTypeMax]int{
		mHello: 1, mLoad: 1, mAssign: 1, mBarrier: b + 1,
		mApply: applies, mFrontier: applies, mShrink: b,
		mShutdown: 1,
	}
	for id, cc := range conns {
		if errs[id] != nil {
			t.Errorf("worker %d: %v", id, errs[id])
		}
		if got := frames(t, id, cc); got != want {
			t.Errorf("worker %d: frames by type %v, want %v", id, got, want)
		}
	}
	t.Logf("%d committed barriers at 8 frames, %d level fixpoints at 4", b, d.MaxK+1)

	const at = 5
	_, conns, errs, killedBarriers := servedRun(t, h, func(n int, kill func(int)) {
		if n == at {
			kill(1)
		}
	}, serveWorker)
	if killedBarriers != barriers+1 {
		t.Errorf("killed run committed %d barriers, want the healthy run's %d and the recovery's", killedBarriers, barriers)
	}
	if errs[0] != nil {
		t.Errorf("surviving worker: %v", errs[0])
	}
	want[mAssign]++
	want[mBarrier]++
	want[mApply]++
	want[mFrontier]++
	if got := frames(t, 0, conns[0]); got != want {
		t.Errorf("survivor: frames by type %v, want %v", got, want)
	}
	if got := frames(t, 1, conns[1]); got[mLoad] != 1 || got[mAssign] != 1 || got[mBarrier] != at {
		t.Errorf("killed worker: frames by type %v, want 1 Load, 1 Assign and %d Barrier votes", got, at)
	}
}

// TestTransportDeathBeforeFirstBarrier serves worker 1 with a fake
// that hangs up after its Assign, before its first Barrier vote, so
// the pool dies before barrier (0, 0) commits.  The recovery takes the
// one path a later death takes: every survivor gets one Assign, which
// restores its replica from the logs, here empty, with every shard it
// now owns, and answers with a Barrier vote.  The run must be exact,
// the survivor must get no second Load, and nothing may leak.
func TestTransportDeathBeforeFirstBarrier(t *testing.T) {
	leakChecked(t, func(t *testing.T) {
		h := dataset.Cellzome().H
		d, conns, errs, barriers := servedRun(t, h, nil, func(ctx context.Context, id int, conn net.Conn) error {
			if id == 0 {
				return serveWorker(ctx, id, conn)
			}
			if err := writeFrame(conn, mHello, (&msgHello{ID: int32(id)}).encode(nil)); err != nil {
				return err
			}
			rd := bufio.NewReader(conn)
			for {
				typ, _, err := readFrame(rd, maxFramePayload, nil)
				if err != nil || typ == mAssign {
					return err
				}
			}
		})
		if errs[0] != nil || errs[1] != nil {
			t.Fatalf("workers: %v", errs)
		}
		b := barriers - 1
		applies := b + d.MaxK + 1
		want := [mTypeMax]int{
			mHello: 1, mLoad: 1, mAssign: 2, mBarrier: b + 2,
			mApply: applies, mFrontier: applies, mShrink: b,
			mShutdown: 1,
		}
		if got := frames(t, 0, conns[0]); got != want {
			t.Errorf("survivor: frames by type %v, want %v", got, want)
		}
	})
}

// TestTransportRejectsVersion1Hello pins that protocol versions 2 to 6
// are deliberate breaks: a worker's Hello framed at version 1, 2, 3, 4
// or 5 fails the join with ErrCorruptFrame, and so does a version-5
// Hello payload, which led with the version before the ID, under a
// version-6 header.
func TestTransportRejectsVersion1Hello(t *testing.T) {
	for _, old := range []byte{1, 2, 3, 4, 5} {
		header := frameBytes(t, mHello, payloadOf(&msgHello{ID: 0}))
		header[2] = old
		if _, err := (&coordinator{}).hello(bufioReader(header)); !errors.Is(err, ErrCorruptFrame) {
			t.Errorf("version-%d header: err = %v, want ErrCorruptFrame", old, err)
		}
	}
	var v5 enc
	v5.u32(5) // version
	v5.i32(0) // ID
	if _, err := (&coordinator{}).hello(bufioReader(frameBytes(t, mHello, v5.b))); !errors.Is(err, ErrCorruptFrame) {
		t.Errorf("version-5 Hello payload: err = %v, want ErrCorruptFrame", err)
	}
	current := frameBytes(t, mHello, payloadOf(&msgHello{ID: 1}))
	if id, err := (&coordinator{}).hello(bufioReader(current)); err != nil || id != 1 {
		t.Errorf("version-%d Hello: id %d, err %v", protoVersion, id, err)
	}
}

// TestTransportDecodeOwnsItsBuffers is the aliasing guard behind the
// recycled read buffers: for every message type, a payload is decoded,
// the buffer it came from is overwritten, and re-encoding the message
// must still reproduce the original bytes.  Each message is decoded
// twice, into a fresh and then into the same, warm value, as the
// coordinator and worker loops decode.
func TestTransportDecodeOwnsItsBuffers(t *testing.T) {
	for _, g := range goldenFrames {
		if g.msg == nil {
			continue
		}
		want := payloadOf(g.msg)
		m := g.empty()
		for pass := 0; pass < 2; pass++ {
			buf := append([]byte(nil), want...)
			if err := m.decode(buf); err != nil {
				t.Fatalf("%s: decode: %v", g.name, err)
			}
			for i := range buf {
				buf[i] = 0xA5
			}
			if got := payloadOf(m); !bytes.Equal(got, want) {
				t.Errorf("%s (decode %d): the message changed with the payload buffer it was decoded from", g.name, pass+1)
			}
		}
	}
}

// TestTransportDecomposeAllocs bounds the allocations of one in-process
// DecomposeCtx of the banded 8000×8000 benchmark instance over 2
// workers and 2 shards: with frame, payload and vote buffers reused,
// what is left is set-up (the Load frame and each replica's build) and
// a fixed cost per connection, not a cost per frame.
// Protocol version 1, with a fresh buffer per frame, made about 4,300.
func TestTransportDecomposeAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("decomposes the banded instance five times")
	}
	_, h := bandedLoad(t)
	opts := Options{Workers: 2, Shards: 2}
	allocs := testing.AllocsPerRun(4, func() {
		if _, err := DecomposeCtx(context.Background(), h, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2000 {
		t.Errorf("one distributed decomposition made %v allocations, want at most 2,000", allocs)
	}
}
