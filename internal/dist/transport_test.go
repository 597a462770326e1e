package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os/exec"
	"slices"
	"strings"
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

// nopConn accepts every Write, Close and read deadline and holds
// nothing.
type nopConn struct{ net.Conn }

func (nopConn) Write(p []byte) (int, error)     { return len(p), nil }
func (nopConn) Close() error                    { return nil }
func (nopConn) SetReadDeadline(time.Time) error { return nil }

// TestTransportOneWritePerFrame pins that every frame leaves in one
// Write: each frame the coordinator broadcasts, its teardown's
// Shutdown, and a worker's heartbeats.
func TestTransportOneWritePerFrame(t *testing.T) {
	cc := &countConn{Conn: nopConn{}}
	c := &coordinator{ctx: context.Background(), workers: []*remoteWorker{{id: 0, conn: cc}}}
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
	writes, bad, sent, _ = wc.counts()
	if sent[mHeartbeat] < 3 || len(bad) != 0 || writes != sent[mHeartbeat] {
		t.Fatalf("worker: %d writes for %d heartbeats, bad: %v", writes, sent[mHeartbeat], bad)
	}
}

// bareCoordinator is a coordinator over a two-shard partition, one
// shard per worker, whose connections swallow every frame: a test plays
// the workers by writing their replies into the inboxes it returns,
// which each worker's reader reads.
func bareCoordinator(t *testing.T, part *partition.Partition) (*coordinator, []*bytes.Buffer) {
	c := &coordinator{ctx: context.Background(), part: part, owner: []int{0, 1},
		opts: Options{HeartbeatInterval: 50 * time.Millisecond, PhaseTimeout: 5 * time.Second},
		seen: make([]int32, max(len(part.VertexOwner), len(part.EdgeOwner)))}
	inboxes := make([]*bytes.Buffer, len(c.owner))
	for id := range c.owner {
		inboxes[id] = new(bytes.Buffer)
		c.workers = append(c.workers, &remoteWorker{id: id, conn: nopConn{}, rd: bufio.NewReader(inboxes[id])})
	}
	t.Cleanup(c.teardown)
	return c, inboxes
}

// TestCoordinatorChecksVotedIDs feeds the coordinator Frontier and
// Barrier votes that name IDs outside what the voter owns: a retired
// vertex below 0, at |V| or in the other worker's shard, and a dying
// hyperedge below 0, at |F| or owned by the other worker's shard.  core.RunRounds indexes the coreness arrays with these
// IDs, and the next broadcast would hand them to every worker, so each
// vote must kill its worker with errWorkerLost instead.  So must a vote
// that names an owned ID twice: every worker's Shrink would retire a
// repeated vertex twice, and Apply would lower a repeated hyperedge's
// member degrees twice.  The other worker's valid vote must still be
// read, and cost it nothing, before the loss is reported.  So must a
// vote of owned IDs tagged with another (k, round): no frame carries an
// epoch, so the tag is what stops a reply meant for another round.
// Votes that name owned IDs once, tagged with the round's (k, round),
// pass.
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
	vote := func(inbox *bytes.Buffer, m codec, typ byte) {
		inbox.Write(frameBytes(t, typ, payloadOf(m)))
	}
	// lostOnly reports whether worker 0 is dead and worker 1 is alive
	// with its whole vote read.
	lostOnly := func(c *coordinator, inbox []*bytes.Buffer) bool {
		return c.workers[0].dead && !c.workers[1].dead && inbox[1].Len()+c.workers[1].rd.Buffered() == 0
	}
	// mustLoseWorker0 fails t unless the round call that returned err
	// lost worker 0 alone, after worker 1's vote was read.
	mustLoseWorker0 := func(what string, c *coordinator, inbox []*bytes.Buffer, err error) {
		t.Helper()
		if !errors.Is(err, errWorkerLost) || !lostOnly(c, inbox) {
			t.Errorf("%s: err = %v, worker 0 dead %v, worker 1 dead %v, %d bytes of its vote unread; want errWorkerLost, worker 0 alone dead and worker 1's vote read",
				what, err, c.workers[0].dead, c.workers[1].dead, inbox[1].Len()+c.workers[1].rd.Buffered())
		}
	}

	for _, bad := range []int32{-1, nv, own1, own0} {
		c, inbox := bareCoordinator(t, part)
		vote(inbox[0], &msgRound{K: 1, IDs: []int32{own0, bad}}, mFrontier)
		vote(inbox[1], &msgRound{K: 1, IDs: []int32{own1}}, mFrontier)
		_, err := c.Apply(context.Background(), 1, nil)
		mustLoseWorker0(fmt.Sprintf("Frontier vote retiring vertex %d", bad), c, inbox, err)
	}
	// Apply at k = 1 before any barrier awaits votes for (1, 0).
	c, inbox := bareCoordinator(t, part)
	vote(inbox[0], &msgRound{K: 1, Round: 1, IDs: []int32{own0}}, mFrontier)
	vote(inbox[1], &msgRound{K: 1, IDs: []int32{own1}}, mFrontier)
	_, err := c.Apply(context.Background(), 1, nil)
	mustLoseWorker0("owned Frontier vote for round (1, 1)", c, inbox, err)
	c, inbox = bareCoordinator(t, part)
	vote(inbox[0], &msgRound{K: 1, IDs: []int32{own0}}, mFrontier)
	vote(inbox[1], &msgRound{K: 1, IDs: []int32{own1}}, mFrontier)
	if retired, err := c.Apply(context.Background(), 1, nil); err != nil || !slices.Equal(retired, []int32{own0, own1}) {
		t.Errorf("owned votes: retired %v, err %v; want [%d %d], nil", retired, err, own0, own1)
	}

	barrier := func(dying ...int32) *msgRound { return &msgRound{K: 1, Round: 1, IDs: dying} }
	for _, bad := range []int32{-1, ne, edge1, edge0} {
		c, inbox := bareCoordinator(t, part)
		vote(inbox[0], barrier(edge0, bad), mBarrier)
		vote(inbox[1], barrier(edge1), mBarrier)
		_, err := c.Shrink(context.Background(), 1, nil)
		mustLoseWorker0(fmt.Sprintf("Barrier vote with dying hyperedge %d", bad), c, inbox, err)
	}
	// Shrink at k = 1 after barrier (0, 0) awaits votes for (1, 1).
	c, inbox = bareCoordinator(t, part)
	vote(inbox[0], &msgRound{K: 2, Round: 1, IDs: []int32{edge0}}, mBarrier)
	vote(inbox[1], barrier(edge1), mBarrier)
	_, err = c.Shrink(context.Background(), 1, nil)
	mustLoseWorker0("owned Barrier vote for round (2, 1)", c, inbox, err)
	c, inbox = bareCoordinator(t, part)
	vote(inbox[0], barrier(edge0), mBarrier)
	vote(inbox[1], barrier(edge1), mBarrier)
	if dying, err := c.Shrink(context.Background(), 1, nil); err != nil || !slices.Equal(dying, []int32{edge0, edge1}) {
		t.Errorf("owned Barrier votes: dying union %v, err %v; want [%d %d], nil", dying, err, edge0, edge1)
	}
}

// servePool runs DecomposeCtx(ctx, h, opts) over 2 workers whose
// connections the test serves through countConns: opts gets a worker
// command that exits at once and a listen address, and the test dials
// it and runs serve for worker IDs 0 and 1.  It returns what
// DecomposeCtx returned, each worker's connection and what serve
// returned for it.
func servePool(t *testing.T, ctx context.Context, h *hypergraph.Hypergraph, opts Options,
	serve func(ctx context.Context, id int, conn net.Conn) error) (*core.Decomposition, []*countConn, []error, error) {
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
	opts.Workers, opts.Shards, opts.WorkerCommand, opts.Listen = 2, 2, []string{noop}, addr

	ctx, cancel := context.WithCancel(ctx)
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
	return d, conns, errs, err
}

// servedRun runs h over the 2 served workers of servePool and checks
// that the run is exact.  onBarrier is the run's OnBarrier, given the
// count of barriers committed so far.  It returns the decomposition,
// each worker's connection and what serve returned for it, and the
// count of committed barriers.
func servedRun(t *testing.T, h *hypergraph.Hypergraph, onBarrier func(n int, kill func(int)),
	serve func(ctx context.Context, id int, conn net.Conn) error) (*core.Decomposition, []*countConn, []error, int) {
	t.Helper()
	barriers := 0
	opts := Options{HeartbeatInterval: time.Second, PhaseTimeout: 10 * time.Second}
	opts.OnBarrier = func(_, _ int32, kill func(int)) {
		barriers++
		if onBarrier != nil {
			onBarrier(barriers, kill)
		}
	}
	d, conns, errs, err := servePool(t, context.Background(), h, opts, serve)
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

// TestAwaitCancelledUnblocks serves 2 silent workers, which join and
// read every frame but answer none, under a 10 s heartbeat interval,
// so the coordinator blocks on the read of a Barrier vote for up to
// its 30 s phase deadline.  The first worker to read its Assign cancels
// the run's context: the coordinator must return context.Canceled at
// once, and nothing may leak.
func TestAwaitCancelledUnblocks(t *testing.T) {
	leakChecked(t, func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var once sync.Once
		var cancelled time.Time
		silent := func(_ context.Context, id int, conn net.Conn) error {
			if err := writeFrame(conn, mHello, (&msgHello{ID: int32(id)}).encode(nil)); err != nil {
				return err
			}
			rd := bufio.NewReader(conn)
			for {
				typ, _, err := readFrame(rd, maxFramePayload, nil)
				if err != nil {
					return nil
				}
				if typ == mAssign {
					once.Do(func() {
						cancelled = time.Now()
						cancel()
					})
				}
			}
		}
		_, _, _, err := servePool(t, ctx, dataset.Cellzome().H, Options{HeartbeatInterval: 10 * time.Second}, silent)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if cancelled.IsZero() {
			t.Fatal("no worker read an Assign")
		}
		if took := time.Since(cancelled); took > 2*time.Second {
			t.Fatalf("the coordinator returned %v after the cancellation, want at once", took)
		}
	})
}

// TestJoinCancelledUnblocks cancels runs that wait in the join under a
// 10 s phase deadline: a pool in which no worker dials (a worker
// command that exits at once), so the coordinator blocks in Accept, and
// 2 dialers that never send Hello, so it blocks on a Hello read.  A
// 200 ms deadline must end each run within 2 s with
// context.DeadlineExceeded, whose text names the package once, and
// nothing may leak.
func TestJoinCancelledUnblocks(t *testing.T) {
	h := dataset.Cellzome().H
	cancelled := func(t *testing.T, start time.Time, err error) {
		t.Helper()
		if !errors.Is(err, context.DeadlineExceeded) || strings.Count(err.Error(), "dist:") != 1 {
			t.Fatalf("err = %v, want context.DeadlineExceeded, with dist: named once", err)
		}
		if took := time.Since(start); took > 2*time.Second {
			t.Fatalf("the run returned %v after it started, want within 2s of its 200ms deadline", took)
		}
	}
	t.Run("no worker dials", func(t *testing.T) {
		leakChecked(t, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer cancel()
			opts := Options{Workers: 2, Shards: 2, WorkerCommand: []string{"/bin/false"}, PhaseTimeout: 10 * time.Second}
			start := time.Now()
			_, err := DecomposeCtx(ctx, h, opts)
			cancelled(t, start, err)
		})
	})
	t.Run("no Hello", func(t *testing.T) {
		leakChecked(t, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer cancel()
			silent := func(_ context.Context, _ int, conn net.Conn) error {
				_, err := io.Copy(io.Discard, conn)
				return err
			}
			start := time.Now()
			_, _, _, err := servePool(t, ctx, h, Options{PhaseTimeout: 10 * time.Second}, silent)
			cancelled(t, start, err)
		})
	})
}

// retypeConn passes every Write through but one: the nth frame of type
// from leaves as type to.  Each Write carries one whole frame
// (TestTransportOneWritePerFrame) and a worker writes under its write
// lock, so nth needs no lock of its own.
type retypeConn struct {
	net.Conn
	from, to byte
	nth      int
}

func (r *retypeConn) Write(p []byte) (int, error) {
	if len(p) >= headerLen && p[3] == r.from {
		if r.nth--; r.nth == 0 {
			p = slices.Clone(p)
			p[3] = r.to
		}
	}
	return r.Conn.Write(p)
}

// TestAwaitReadsEverySurvivorVote runs the coordinator over net.Pipe
// connections, which buffer nothing, so a vote the coordinator leaves
// unread blocks its sender.  Two real workers serve the pipes.  Worker
// 0 is lost in the middle of a round: one of its votes leaves as the
// other vote type, or its connection is severed at the first barrier
// so the Apply broadcast fails on it.  Worker 1's vote for the same
// round waits on its pipe meanwhile.  The coordinator must read that
// vote before the recovery writes worker 1 its Assign, or each write
// blocks the other until the 10 s timeout closes the pipes; the run
// must end exact on worker 1 alone.
func TestAwaitReadsEverySurvivorVote(t *testing.T) {
	h := dataset.Cellzome().H
	for _, tc := range []struct {
		name     string
		from, to byte // worker 0's nth frame of type from leaves as type to
		nth      int
		sever    bool // sever worker 0 at the first barrier instead
	}{
		{name: "assign's Barrier vote", from: mBarrier, to: mFrontier, nth: 1},
		{name: "Apply's Frontier vote", from: mFrontier, to: mBarrier, nth: 1},
		{name: "Shrink's Barrier vote", from: mBarrier, to: mFrontier, nth: 2},
		{name: "Apply's broadcast", sever: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			leakChecked(t, func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				part := partition.Build(h, 2)
				c := &coordinator{ctx: ctx, h: h, part: part, owner: []int{-1, -1},
					opts: Options{HeartbeatInterval: 10 * time.Second, PhaseTimeout: 10 * time.Second}.normalized(h),
					seen: make([]int32, max(len(part.VertexOwner), len(part.EdgeOwner)))}
				if tc.sever {
					c.opts.OnBarrier = func(_, _ int32, kill func(int)) {
						if c.recoveries == 0 {
							kill(0)
						}
					}
				}
				var wg sync.WaitGroup
				defer wg.Wait()
				defer c.teardown()
				for id := range 2 {
					end, conn := net.Pipe()
					rw := &remoteWorker{id: id, conn: end, rd: bufio.NewReader(end)}
					c.accepted, c.workers = append(c.accepted, end), append(c.workers, rw)
					var served net.Conn = conn
					if id == 0 && !tc.sever {
						served = &retypeConn{Conn: conn, from: tc.from, to: tc.to, nth: tc.nth}
					}
					wg.Add(1)
					go func() {
						defer wg.Done()
						_ = ServeWorker(ctx, served, WorkerOptions{ID: id, HeartbeatInterval: 10 * time.Second})
						_ = conn.Close()
					}()
					if got, err := c.hello(rw.rd); err != nil || got != id {
						t.Fatalf("worker %d's Hello: ID %d, err %v", id, got, err)
					}
				}
				defer context.AfterFunc(ctx, c.closeAccepted)()
				d, err := c.peel()
				if err != nil {
					t.Fatal(err)
				}
				if !c.workers[0].dead || c.workers[1].dead || c.recoveries != 1 {
					t.Fatalf("worker 0 dead %v, worker 1 dead %v, %d recoveries; want worker 0 alone lost and one recovery",
						c.workers[0].dead, c.workers[1].dead, c.recoveries)
				}
				assertExact(t, h, d, tc.name)
			})
		})
	}
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

// TestTransportRejectsVersion1Hello pins that protocol versions 2 to 7
// are deliberate breaks: a worker's Hello framed at any version from 1
// to 6 fails the join with ErrCorruptFrame, and so does a version-5
// Hello payload, which led with the version before the ID, under a
// current header.
func TestTransportRejectsVersion1Hello(t *testing.T) {
	for _, old := range []byte{1, 2, 3, 4, 5, 6} {
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
