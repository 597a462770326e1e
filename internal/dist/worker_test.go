package dist

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"hyperplex/internal/check"
	"hyperplex/internal/core"
	"hyperplex/internal/csr"
	"hyperplex/internal/dataset"
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
	d := &workerDriver{t: t, conn: conn, w: &workerState{conn: conn, opts: WorkerOptions{}.normalized()}, h: h}
	d.call(mLoad, payloadOf(loadOf(h, part)), 0)
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

func (d *workerDriver) Apply(ctx context.Context, k int, dying []int32) ([]int32, error) {
	if d.resume {
		d.resume = false
		return nil, errResume
	}
	var fr msgRound
	d.decode(&fr, d.call(mApply, payloadOf(&msgRound{K: int32(k), Round: d.bar.round, IDs: dying}), mFrontier))
	if d.ref != nil {
		retired, _ := d.ref.Apply(ctx, k, dying)
		d.sameIDs("Frontier", fr.IDs, retired)
	}
	return fr.IDs, nil
}

func (d *workerDriver) Shrink(ctx context.Context, k int, retired []int32) ([]int32, error) {
	d.t.Helper()
	var vote msgRound
	next := d.bar.round + 1
	d.decode(&vote, d.call(mShrink, payloadOf(&msgRound{K: int32(k), Round: next, IDs: retired}), mBarrier))
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
// RunRounds returns.
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
// shrinks none), and a round ending in its vote at B2.  There the run
// recovers as the coordinator does: one Assign, which carries the
// logs up to B1 and every shard, must be answered with a Barrier vote
// at B1's tag that names the IDs the worker's vote at B1 named, the
// committed dying union, and RunRounds resumes at B1 from that vote,
// handing the lost round out again.  A reference worker stopped at its
// vote at B1 finds B1; from B1 on every vote of the restored worker
// must name the same IDs as the reference's vote, and the run must end
// with Decompose's decomposition, so the replayed round's retired
// vertices are counted once.
func TestWorkerRestoreAtCommittedBarrier(t *testing.T) {
	h := gen.RandomHypergraph(180, 140, 5, xrand.New(0xBEEF))
	part := partition.Build(h, 3)
	ref := newWorkerDriver(t, h, part)
	var b1 barrierTag
	ref.atBarrier = func(b barrierTag) error {
		if b.round > 0 && len(b.dying) > 0 {
			b1 = b
			return errPeerLost
		}
		return nil
	}
	if _, err := ref.run(); !errors.Is(err, errPeerLost) {
		t.Fatalf("reference run: err = %v, want it stopped at its vote at B1", err)
	}
	if len(b1.dying) == 0 || len(b1.retired) == 0 {
		t.Fatalf("B1 at (%d, %d) after %d retirements with %d dying: want a dying delta and retirements before it",
			b1.k, b1.round, len(b1.retired), len(b1.dying))
	}
	ref.atBarrier = nil

	d := newWorkerDriver(t, h, part)
	recovered := false
	d.atBarrier = func(b barrierTag) error {
		switch b.round {
		case b1.round:
			if !slices.Equal(b.dying, b1.dying) || !slices.Equal(b.dead, b1.dead) || !slices.Equal(b.retired, b1.retired) {
				t.Fatalf("the worker's vote and logs at B1 (%d, %d) differ from the reference's", b1.k, b1.round)
			}
		case b1.round + 1:
			d.atBarrier = nil
			var vote msgRound
			d.decode(&vote, d.call(mAssign, payloadOf(&msgAssign{K: b1.k, Round: b1.round, Shards: d.shards, Dead: b1.dead, Retired: b1.retired}), mBarrier))
			if vote.K != b1.k || vote.Round != b1.round {
				t.Fatalf("the recovery Assign's vote is tagged (%d, %d), want B1 (%d, %d)", vote.K, vote.Round, b1.k, b1.round)
			}
			d.bar = b1
			d.sameIDs("recovery Barrier", vote.IDs, b1.dying)
			d.bar.dying, d.ref, recovered = vote.IDs, ref, true
			return errResume
		}
		return nil
	}
	got, err := d.run()
	if err != nil {
		t.Fatal(err)
	}
	if !recovered {
		t.Fatalf("the run ended before B2, the barrier after B1 (%d, %d)", b1.k, b1.round)
	}
	want := core.Decompose(h)
	if got.MaxK != want.MaxK || !slices.Equal(got.VertexCoreness, want.VertexCoreness) || !slices.Equal(got.EdgeCoreness, want.EdgeCoreness) {
		t.Fatalf("the recovered run's decomposition (MaxK %d) differs from Decompose's (MaxK %d)", got.MaxK, want.MaxK)
	}
}

// loadOf is the Load frame the coordinator ships for h over part.
func loadOf(h *hypergraph.Hypergraph, part *partition.Partition) *msgLoad {
	g := h.CSR()
	return &msgLoad{Shards: csr.MustInt32(part.NumShards()), NumV: csr.MustInt32(h.NumVertices()), EOff: g.EOff, EAdj: g.EAdj}
}

// TestWorkerBuildsCoordinatorPartition loads the sweep instances and
// Cellzome into a worker at every shard count from 1 to 8, as the
// coordinator normalizes it: the partition the worker builds from the
// Load must be the coordinator's, with the same vertex and hyperedge
// owners and the same bounds and hyperedges in every shard, since the
// replicas and the coordinator's vote checks address shards by index.
func TestWorkerBuildsCoordinatorPartition(t *testing.T) {
	for i, h := range append(check.Instances(6, 0xB10C), dataset.Cellzome().H) {
		for shards := 1; shards <= 8; shards++ {
			want := partition.Build(h, shards)
			w := &workerState{conn: &recordConn{}, opts: WorkerOptions{}.normalized()}
			if err := w.handle(context.Background(), mLoad, payloadOf(loadOf(h, want))); err != nil {
				t.Fatalf("instance %d at %d shards: %v", i, shards, err)
			}
			got := w.peeler.Partition()
			if !slices.Equal(got.VertexOwner, want.VertexOwner) || !slices.Equal(got.EdgeOwner, want.EdgeOwner) || len(got.Shards) != len(want.Shards) {
				t.Fatalf("instance %d at %d shards: the worker's owners or shard count differ from the coordinator's", i, shards)
			}
			for s, sh := range want.Shards {
				g := got.Shards[s]
				if g.First != sh.First || g.Count != sh.Count || !slices.Equal(g.Edges, sh.Edges) {
					t.Fatalf("instance %d at %d shards: shard %d is [%d,+%d) with %d hyperedges at the worker, [%d,+%d) with %d at the coordinator",
						i, shards, s, g.First, g.Count, len(g.Edges), sh.First, sh.Count, len(sh.Edges))
				}
			}
		}
	}
}

// serveFrame serves a worker over a pipe, whose end it closes when
// ServeWorker returns, as hgshardd and the in-process workers do, and
// sends it frame, a frame of type typ, after its Hello.  The worker
// must refuse it: its connection must close with no frame but
// heartbeats before the close.  serveFrame returns what ServeWorker
// returned, which must not be a recovered panic.
func serveFrame(t *testing.T, typ byte, frame []byte) error {
	t.Helper()
	coord, worker := net.Pipe()
	defer coord.Close()
	served := make(chan error, 1)
	go func() {
		err := ServeWorker(context.Background(), worker, WorkerOptions{HeartbeatInterval: time.Millisecond})
		_ = worker.Close()
		served <- err
	}()
	rd := bufio.NewReader(coord)
	if got, _, err := readFrame(rd, maxFramePayload, nil); err != nil || got != mHello {
		t.Fatalf("first frame: type %d, err %v; want Hello", got, err)
	}
	if err := writeFrame(coord, typ, frame); err != nil {
		t.Fatal(err)
	}
	for {
		got, _, err := readFrame(rd, maxFramePayload, nil)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil || got != mHeartbeat {
			t.Fatalf("frame type %d: read type %d, err %v; want heartbeats, then the connection closed", typ, got, err)
		}
	}
	err := <-served
	var panicked *core.WorkerPanicError
	if errors.As(err, &panicked) {
		t.Fatalf("frame type %d: ServeWorker recovered a panic: %v", typ, err)
	}
	return err
}

// TestWorkerFramesBeforeLoad sends Apply, Shrink and Assign frames to
// workers that have had no Load: handle must refuse each with
// errBeforeLoad, and ServeWorker must return it, with no panic
// recovered, and leave its connection to close.
func TestWorkerFramesBeforeLoad(t *testing.T) {
	for _, f := range []struct {
		typ byte
		msg codec
	}{
		{mApply, &msgRound{K: 1, IDs: []int32{0}}},
		{mShrink, &msgRound{K: 1, Round: 1, IDs: []int32{0}}},
		{mAssign, &msgAssign{Shards: []int32{0}}},
	} {
		w := &workerState{conn: &recordConn{}, opts: WorkerOptions{}.normalized()}
		if err := w.handle(context.Background(), f.typ, payloadOf(f.msg)); !errors.Is(err, errBeforeLoad) {
			t.Errorf("frame type %d before Load: err = %v, want errBeforeLoad", f.typ, err)
		}
		if err := serveFrame(t, f.typ, f.msg.encode(nil)); !errors.Is(err, errBeforeLoad) || !strings.Contains(err.Error(), errBeforeLoad.Error()) {
			t.Errorf("frame type %d before Load: ServeWorker returned %v; want it to name %q", f.typ, err, errBeforeLoad)
		}
	}
}

// TestLoadRejectsBadMembers sends Load frames that decode but that no
// replica can be built from: rows that hypergraph.FromRows, the one
// row validator, refuses (members outside [0, NumV), offsets that end
// short of the members), and sound rows with a shard count the
// shard-count policy would change, from which the worker would build a
// partition other than the coordinator's.  Each must fail as a corrupt
// frame with the error the table gives, through handle, which must
// build no replica, and through ServeWorker, which must return the
// same error and leave its connection to close.
func TestLoadRejectsBadMembers(t *testing.T) {
	rows := func(nv, shards int32) msgLoad {
		return msgLoad{Shards: shards, NumV: nv, EOff: []int32{0, 2}, EAdj: []int32{0, 1}}
	}
	cpus := partition.NormalizeShards(0, 1000)
	for _, tc := range []struct {
		load msgLoad
		want string
	}{
		{msgLoad{Shards: 1, NumV: 2, EOff: []int32{0, 0, 2}, EAdj: []int32{0, 5}}, "dist: corrupt frame: load graph: hypergraph: edge 1 member 5 out of range [0,2)"},
		{msgLoad{Shards: 1, NumV: 2, EOff: []int32{0, 1}, EAdj: []int32{-1}}, "dist: corrupt frame: load graph: hypergraph: edge 0 member -1 out of range [0,2)"},
		{msgLoad{Shards: 1, NumV: -3, EOff: []int32{0, 1}, EAdj: []int32{0}}, "dist: corrupt frame: load graph: hypergraph: edge 0 member 0 out of range [0,-3)"},
		{msgLoad{Shards: 1, NumV: 2, EOff: []int32{0, 2}, EAdj: []int32{0}}, "dist: corrupt frame: load graph: hypergraph: row offsets end at 2, want the 1 pins"},
		{rows(1000, 0), fmt.Sprintf("dist: corrupt frame: load names 0 shards, the shard-count policy gives %d at 1000 vertices", cpus)},
		{rows(1000, -1), fmt.Sprintf("dist: corrupt frame: load names -1 shards, the shard-count policy gives %d at 1000 vertices", cpus)},
		{rows(2, 3), "dist: corrupt frame: load names 3 shards, the shard-count policy gives 2 at 2 vertices"},
		{rows(1000, 513), "dist: corrupt frame: load names 513 shards, the shard-count policy gives 512 at 1000 vertices"},
	} {
		w := &workerState{conn: &recordConn{}, opts: WorkerOptions{}.normalized()}
		err := w.handle(context.Background(), mLoad, payloadOf(&tc.load))
		if !errors.Is(err, ErrCorruptFrame) || err.Error() != tc.want {
			t.Errorf("Load %+v: err = %v, want ErrCorruptFrame as %s", tc.load, err, tc.want)
		}
		if w.peeler != nil {
			t.Errorf("Load %+v: a replica was built", tc.load)
		}
		if err := serveFrame(t, mLoad, tc.load.encode(nil)); !errors.Is(err, ErrCorruptFrame) || err.Error() != tc.want {
			t.Errorf("Load %+v: ServeWorker returned %v; want ErrCorruptFrame as %s", tc.load, err, tc.want)
		}
	}
}
