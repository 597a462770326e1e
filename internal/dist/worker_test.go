package dist

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"math"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"hyperplex/internal/core"
	"hyperplex/internal/csr"
	"hyperplex/internal/gen"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/partition"
	"hyperplex/internal/xrand"
)

// recordConn is a worker's connection that records the frames the
// worker sends.  The test plays the coordinator by calling handle
// directly, so Write is the only method the worker uses.
type recordConn struct {
	net.Conn
	out bytes.Buffer
}

func (c *recordConn) Write(p []byte) (int, error) { return c.out.Write(p) }

// workerDriver plays the coordinator against one workerState that
// owns every shard: it is a core.Rounds over the worker's frames, so
// core.RunRounds schedules the rounds and records the result.  Like the
// coordinator it logs every committed round's deltas.  atBarrier, when
// set, runs after every vote; an error it returns ends the run.  ref,
// when set, is a second driver that every round is also handed to,
// whose votes must name the same IDs.
type workerDriver struct {
	t         *testing.T
	w         *workerState
	conn      *recordConn
	epoch     uint32
	shards    []int32    // every shard; the worker owns them all
	bar       barrierTag // the barrier the worker last voted at
	atBarrier func(b barrierTag) error
	ref       *workerDriver
	h         *hypergraph.Hypergraph // the loaded hypergraph
	resume    bool                   // the next Apply fails with errResume
}

// barrierTag is a barrier the worker voted at: its tag, the dying
// delta its vote carried, and the logs of every hyperedge the rounds
// before it killed and every vertex they retired.
type barrierTag struct {
	k, round      int32
	dying         []int32
	dead, retired []int32
}

// newWorkerDriver loads h and its partition into a new worker and
// assigns it every shard with empty logs, which leaves it at barrier
// (0, 0).
func newWorkerDriver(t *testing.T, h *hypergraph.Hypergraph, part *partition.Partition) *workerDriver {
	t.Helper()
	conn := &recordConn{}
	d := &workerDriver{t: t, conn: conn, w: &workerState{ctx: context.Background(), conn: conn, opts: WorkerOptions{}.normalized()}, h: h}
	g := h.CSR()
	load := msgLoad{Descs: part.Descs(), NumV: csr.MustInt32(h.NumVertices()), EOff: g.EOff, EAdj: g.EAdj}
	d.call(mLoad, payloadOf(&load), 0)
	for s := 0; s < part.NumShards(); s++ {
		d.shards = append(d.shards, int32(s))
	}
	var vote msgRound
	d.decode(&vote, d.call(mAssign, payloadOf(&msgAssign{Shards: d.shards}), mBarrier))
	d.bar = barrierTag{dying: vote.IDs}
	return d
}

// call hands the worker one frame and returns the payload of its reply
// of type want; want 0 expects no reply.
func (d *workerDriver) call(typ byte, payload []byte, want byte) []byte {
	d.t.Helper()
	if err := d.w.handle(context.Background(), typ, payload); err != nil {
		d.t.Fatalf("frame type %d: %v", typ, err)
	}
	if want == 0 {
		if d.conn.out.Len() != 0 {
			d.t.Fatalf("frame type %d: unexpected %d-byte reply", typ, d.conn.out.Len())
		}
		return nil
	}
	got, reply, err := readFrame(&d.conn.out, maxFramePayload, nil)
	if err != nil || got != want || d.conn.out.Len() != 0 {
		d.t.Fatalf("frame type %d: reply type %d (want %d), err %v, %d bytes left over", typ, got, want, err, d.conn.out.Len())
	}
	return reply
}

func (d *workerDriver) decode(m codec, payload []byte) {
	d.t.Helper()
	if err := m.decode(payload); err != nil {
		d.t.Fatal(err)
	}
}

// sameIDs asserts that a vote named the IDs of want, the reference's
// vote or the committed union, in any order.
func (d *workerDriver) sameIDs(what string, got, want []int32) {
	d.t.Helper()
	got, want = slices.Clone(got), slices.Clone(want)
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		d.t.Fatalf("after barrier (%d, %d) the %s vote names %v, want %v", d.bar.k, d.bar.round, what, got, want)
	}
}

func (d *workerDriver) Apply(ctx context.Context, k int, dying []int32) ([]int32, int, error) {
	if d.resume {
		d.resume = false
		return nil, 0, errResume
	}
	var fr msgRound
	d.decode(&fr, d.call(mApply, payloadOf(&msgRound{Epoch: d.epoch, K: int32(k), Round: d.bar.round, IDs: dying}), mFrontier))
	if d.ref != nil {
		retired, alive, _ := d.ref.Apply(ctx, k, dying)
		d.sameIDs("Frontier", fr.IDs, retired)
		if int(fr.Alive) != alive {
			d.t.Fatalf("after barrier (%d, %d) the Frontier vote counts %d alive, the reference's %d", d.bar.k, d.bar.round, fr.Alive, alive)
		}
	}
	return fr.IDs, int(fr.Alive), nil
}

func (d *workerDriver) Shrink(ctx context.Context, k int, retired []int32) ([]int32, error) {
	d.t.Helper()
	var vote msgRound
	next := d.bar.round + 1
	d.decode(&vote, d.call(mShrink, payloadOf(&msgRound{Epoch: d.epoch, K: int32(k), Round: next, IDs: retired}), mBarrier))
	if vote.K != int32(k) || vote.Round != next {
		d.t.Fatalf("worker voted barrier (%d, %d), want (%d, %d)", vote.K, vote.Round, k, next)
	}
	if d.ref != nil {
		dying, _ := d.ref.Shrink(ctx, k, retired)
		d.sameIDs("Barrier", vote.IDs, dying)
	}
	// The round applied the dying delta of the barrier before it.
	d.bar = barrierTag{k: int32(k), round: next, dying: vote.IDs,
		dead: slices.Concat(d.bar.dead, d.bar.dying), retired: slices.Concat(d.bar.retired, retired)}
	if d.atBarrier != nil {
		if err := d.atBarrier(d.bar); err != nil {
			return nil, err
		}
	}
	return d.bar.dying, nil
}

// Resume answers errResume with the last barrier, as the coordinator's
// answers a worker death with the committed one.
func (d *workerDriver) Resume(err error) (int, []int32, error) {
	if errors.Is(err, errResume) {
		return int(d.bar.k), d.bar.dying, nil
	}
	return 0, nil, err
}

// errResume fails the first Apply of a run, so that RunRounds resumes
// at the last barrier.
var errResume = errors.New("resume at the last barrier")

// run runs the round schedule from the last barrier and returns what
// RunRounds returns: what the rounds from there record, coreness 0 for
// every vertex and hyperedge retired before it.
func (d *workerDriver) run() (*core.Decomposition, error) {
	d.t.Helper()
	d.resume = true
	return core.RunRounds(context.Background(), d, d.h, nil, math.MaxInt)
}

// errPeerLost stands for a peer's death after the worker's vote: the
// barrier is never committed.
var errPeerLost = errors.New("peer lost")

// TestWorkerRestoreAtCommittedBarrier drives one worker through the
// frames of a run that loses a peer after the worker voted at barrier
// B2: Load, Assign, rounds up to its vote at B1, the first barrier
// whose dying delta is not empty (at k = 1 no later barrier has one:
// a vertex retires there only once all its hyperedges are dead, so it
// shrinks none), a round ending in its vote at B2, and the recovery's
// one Assign, which carries the logs up to B1 and every shard.  The
// worker must answer it with a Barrier vote at B1's tag that names the
// IDs its vote at B1 named, the committed dying union.  From B1 on,
// resumed from that vote, every vote of the restored worker must name
// the same IDs as the vote of a reference worker stopped at its vote
// at B1, and the continuation must give every vertex and hyperedge
// alive at B1 its Decompose coreness.
func TestWorkerRestoreAtCommittedBarrier(t *testing.T) {
	h := gen.RandomHypergraph(180, 140, 5, xrand.New(0xBEEF))
	part := partition.Build(h, 3)
	d := newWorkerDriver(t, h, part)
	var b1 barrierTag
	d.atBarrier = func(b barrierTag) error {
		switch {
		case len(b1.dying) > 0:
			return errPeerLost
		case b.round > 0 && len(b.dying) > 0:
			b1 = b
		}
		return nil
	}
	if _, err := d.run(); !errors.Is(err, errPeerLost) {
		t.Fatalf("run: err = %v, want it stopped at B2", err)
	}
	if b2 := d.bar; len(b1.dying) == 0 || b2.round != b1.round+1 || len(b1.retired) == 0 {
		t.Fatalf("B1 at (%d, %d) after %d retirements with %d dying, B2 at (%d, %d): want a dying delta and retirements before B1, and B2 the barrier after it",
			b1.k, b1.round, len(b1.retired), len(b1.dying), b2.k, b2.round)
	}
	d.epoch++
	var vote msgRound
	d.decode(&vote, d.call(mAssign, payloadOf(&msgAssign{Epoch: d.epoch, K: b1.k, Round: b1.round, Shards: d.shards, Dead: b1.dead, Retired: b1.retired}), mBarrier))
	if vote.Epoch != d.epoch || vote.K != b1.k || vote.Round != b1.round {
		t.Fatalf("the recovery Assign's vote is tagged epoch %d at (%d, %d), want epoch %d at B1 (%d, %d)", vote.Epoch, vote.K, vote.Round, d.epoch, b1.k, b1.round)
	}
	d.bar = b1
	d.sameIDs("recovery Barrier", vote.IDs, b1.dying)

	ref := newWorkerDriver(t, h, part)
	ref.atBarrier = func(b barrierTag) error {
		if b.k == b1.k && b.round == b1.round {
			return errPeerLost
		}
		return nil
	}
	if _, err := ref.run(); !errors.Is(err, errPeerLost) {
		t.Fatalf("reference run: err = %v, want it stopped at its vote at B1", err)
	}
	if rb1 := ref.bar; !slices.Equal(rb1.dying, b1.dying) || !slices.Equal(rb1.dead, b1.dead) || !slices.Equal(rb1.retired, b1.retired) {
		t.Fatalf("the reference's vote and logs at B1 (%d, %d) differ from the worker's", b1.k, b1.round)
	}

	ref.atBarrier = nil
	b1.dying = vote.IDs
	d.atBarrier, d.bar, d.ref = nil, b1, ref
	got, err := d.run()
	if err != nil {
		t.Fatal(err)
	}
	want := core.Decompose(h)
	// A continuation records the level fixpoints from B1's k on.
	wantMax := want.MaxK
	if int(b1.k) > want.MaxK {
		wantMax = 0
	}
	if got.MaxK != wantMax {
		t.Fatalf("the continuation's MaxK is %d, want %d", got.MaxK, wantMax)
	}
	retired, dead := make([]bool, h.NumVertices()), make([]bool, h.NumEdges())
	for _, v := range b1.retired {
		retired[v] = true
	}
	for _, f := range b1.dead {
		dead[f] = true
	}
	for v, c := range want.VertexCoreness {
		if !retired[v] && got.VertexCoreness[v] != c {
			t.Fatalf("the continuation gives vertex %d, alive at B1, coreness %d, want %d", v, got.VertexCoreness[v], c)
		}
	}
	for f, c := range want.EdgeCoreness {
		if !dead[f] && got.EdgeCoreness[f] != c {
			t.Fatalf("the continuation gives hyperedge %d, alive at B1, coreness %d, want %d", f, got.EdgeCoreness[f], c)
		}
	}
}

// TestWorkerFramesBeforeLoad sends Apply, Shrink and Assign frames to
// workers that have had no Load: handle must refuse each with
// errBeforeLoad, and ServeWorker must report it in an Error frame and
// return it, with no panic recovered.
func TestWorkerFramesBeforeLoad(t *testing.T) {
	for _, f := range []struct {
		typ byte
		msg codec
	}{
		{mApply, &msgRound{K: 1, IDs: []int32{0}}},
		{mShrink, &msgRound{K: 1, Round: 1, IDs: []int32{0}}},
		{mAssign, &msgAssign{Shards: []int32{0}}},
	} {
		w := &workerState{ctx: context.Background(), conn: &recordConn{}, opts: WorkerOptions{}.normalized()}
		if err := w.handle(context.Background(), f.typ, payloadOf(f.msg)); !errors.Is(err, errBeforeLoad) {
			t.Errorf("frame type %d before Load: err = %v, want errBeforeLoad", f.typ, err)
		}

		coord, worker := net.Pipe()
		served := make(chan error, 1)
		go func() {
			served <- ServeWorker(context.Background(), worker, WorkerOptions{HeartbeatInterval: time.Hour})
		}()
		rd := bufio.NewReader(coord)
		if typ, _, err := readFrame(rd, maxFramePayload, nil); err != nil || typ != mHello {
			t.Fatalf("first frame: type %d, err %v; want Hello", typ, err)
		}
		if err := writeFrame(coord, f.typ, f.msg.encode(nil)); err != nil {
			t.Fatal(err)
		}
		var report msgError
		typ, payload, err := readFrame(rd, maxFramePayload, nil)
		if err == nil && typ == mError {
			err = report.decode(payload)
		}
		if err != nil || typ != mError || !strings.Contains(report.Text, errBeforeLoad.Error()) {
			t.Errorf("frame type %d before Load: reply type %d %q, err %v; want an Error frame naming %q", f.typ, typ, report.Text, err, errBeforeLoad)
		}
		err = <-served
		var panicked *core.WorkerPanicError
		if !errors.Is(err, errBeforeLoad) || errors.As(err, &panicked) {
			t.Errorf("frame type %d before Load: ServeWorker returned %v, want errBeforeLoad and no recovered panic", f.typ, err)
		}
		coord.Close()
		worker.Close()
	}
}

// TestLoadRejectsBadMembers sends Load frames that decode but whose
// rows name vertices outside [0, NumV): the worker hands the decoded
// arrays to hypergraph.FromRows, which must refuse them with its
// member error, and no replica is built.
func TestLoadRejectsBadMembers(t *testing.T) {
	for _, tc := range []struct {
		load msgLoad
		want string
	}{
		{msgLoad{NumV: 2, EOff: []int32{0, 0, 2}, EAdj: []int32{0, 5}}, "dist: load graph: hypergraph: edge 1 member 5 out of range [0,2)"},
		{msgLoad{NumV: 2, EOff: []int32{0, 1}, EAdj: []int32{-1}}, "dist: load graph: hypergraph: edge 0 member -1 out of range [0,2)"},
		{msgLoad{NumV: -3, EOff: []int32{0, 1}, EAdj: []int32{0}}, "dist: load graph: hypergraph: edge 0 member 0 out of range [0,-3)"},
	} {
		w := &workerState{ctx: context.Background(), conn: &recordConn{}, opts: WorkerOptions{}.normalized()}
		err := w.handle(context.Background(), mLoad, payloadOf(&tc.load))
		if err == nil || err.Error() != tc.want {
			t.Errorf("Load %+v: err = %v, want %s", tc.load, err, tc.want)
		}
		if w.peeler != nil {
			t.Errorf("Load %+v: a replica was built", tc.load)
		}
	}
}
