package dist

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net"
	"reflect"
	"slices"
	"testing"

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
// core.RunRounds schedules the rounds and records the result.
// atBarrier, when set, runs after every vote; an error it returns ends
// the run.
type workerDriver struct {
	t         *testing.T
	w         *workerState
	conn      *recordConn
	epoch     uint32
	bar       barrierTag // the barrier the worker last voted at
	atBarrier func(b barrierTag) error
	h         *hypergraph.Hypergraph // the loaded hypergraph
}

// barrierTag is a barrier the worker voted at and the dying delta its
// vote carried.
type barrierTag struct {
	k, round int32
	dying    []int32
}

// newWorkerDriver loads h and its partition into a fresh worker and
// assigns it every shard, which leaves it at barrier (0, 0).
func newWorkerDriver(t *testing.T, h *hypergraph.Hypergraph, part *partition.Partition) *workerDriver {
	t.Helper()
	conn := &recordConn{}
	d := &workerDriver{t: t, conn: conn, w: &workerState{ctx: context.Background(), conn: conn, opts: WorkerOptions{}.normalized()}, h: h}
	g := h.CSR()
	load := msgLoad{Descs: part.Descs(), NumV: csr.MustInt32(h.NumVertices()), EOff: g.EOff, EAdj: g.EAdj}
	d.call(mLoad, payloadOf(&load), 0)
	fresh := make([]int32, part.NumShards())
	for s := range fresh {
		fresh[s] = int32(s)
	}
	var b msgBarrier
	d.decode(&b, d.call(mAssign, payloadOf(&msgAssign{Fresh: fresh}), mBarrier))
	d.bar = barrierTag{dying: snapshotsDying(b.Snaps)}
	return d
}

func snapshotsDying(snaps []*core.ShardSnapshot) []int32 {
	var dying []int32
	for _, sn := range snaps {
		dying = append(dying, sn.Dying...)
	}
	return dying
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

func (d *workerDriver) Apply(_ context.Context, k int, dying []int32) ([]int32, int, error) {
	var fr msgRound
	d.decode(&fr, d.call(mApply, payloadOf(&msgRound{Epoch: d.epoch, K: int32(k), Round: d.bar.round, IDs: dying}), mFrontier))
	return fr.IDs, int(fr.Alive), nil
}

func (d *workerDriver) Shrink(_ context.Context, k int, retired []int32) ([]int32, error) {
	d.t.Helper()
	var bar msgBarrier
	next := d.bar.round + 1
	d.decode(&bar, d.call(mShrink, payloadOf(&msgRound{Epoch: d.epoch, K: int32(k), Round: next, IDs: retired}), mBarrier))
	if bar.K != int32(k) || bar.Round != next {
		d.t.Fatalf("worker voted barrier (%d, %d), want (%d, %d)", bar.K, bar.Round, k, next)
	}
	d.bar = barrierTag{k: int32(k), round: next, dying: snapshotsDying(bar.Snaps)}
	if d.atBarrier != nil {
		if err := d.atBarrier(d.bar); err != nil {
			return nil, err
		}
	}
	return d.bar.dying, nil
}

func (d *workerDriver) Resume(err error) (int, []int32, error) { return 0, nil, err }

// run runs the round schedule from the last barrier, which must be at
// k ≤ 1, where RunRounds starts, and returns what RunRounds returns.
// Vertices and hyperedges retired before that barrier left at k = 1,
// so the coreness 0 RunRounds starts them at is theirs.
func (d *workerDriver) run() (*core.Decomposition, error) {
	d.t.Helper()
	return core.RunRounds(context.Background(), d, d.h, d.bar.dying, math.MaxInt)
}

// errPeerLost stands for a peer's death after the worker's vote: the
// barrier is never committed.
var errPeerLost = errors.New("peer lost")

// TestWorkerRollbackToCommitted drives one worker through the frames of
// a run that loses a peer after the worker voted at barrier B2: Load,
// Assign, a round ending in its vote at B1, an Apply that commits B1,
// a round ending in its vote at B2, and a Rollback to B1.  The B2 vote
// must reuse the spare checkpoint and leave the committed one intact,
// so after the rollback the replica equals a reference worker stopped
// at its vote at B1 (mirrors and every shard snapshot), and the
// continuation from B1 is exact.
func TestWorkerRollbackToCommitted(t *testing.T) {
	h := gen.RandomHypergraph(180, 140, 5, xrand.New(0xBEEF))
	part := partition.Build(h, 3)
	d := newWorkerDriver(t, h, part)
	spare := d.w.committed.cp // the Assign checkpoint, spare once B1 commits
	var b1 barrierTag
	var voted *core.PeelCheckpoint
	d.atBarrier = func(b barrierTag) error {
		if b.round == 1 {
			b1, voted = b, d.w.pending.cp
			return nil
		}
		return errPeerLost
	}
	if _, err := d.run(); !errors.Is(err, errPeerLost) {
		t.Fatalf("run: err = %v, want it stopped at B2", err)
	}
	if b2 := d.bar; b1.k != 1 || b2.round != 2 {
		t.Fatalf("B1 at (%d, %d), B2 at (%d, %d): want B1 at k = 1, where RunRounds resumes, and B2 after it", b1.k, b1.round, b2.k, b2.round)
	}
	if d.w.committed.cp != voted || d.w.committed.k != b1.k || d.w.committed.round != b1.round {
		t.Fatalf("committed slot is (%d, %d), want the B1 vote (%d, %d)", d.w.committed.k, d.w.committed.round, b1.k, b1.round)
	}
	if d.w.pending.cp != spare {
		t.Fatal("the B2 vote did not reuse the spare checkpoint")
	}
	d.epoch++
	d.call(mRollback, payloadOf(&msgRound{Epoch: d.epoch, K: b1.k, Round: b1.round}), 0)
	if d.w.pending != nil || d.w.spare == nil || d.w.spare.k != d.bar.k || d.w.spare.round != d.bar.round {
		t.Fatal("after the rollback the B2 vote should be the spare and nothing pending")
	}

	ref := newWorkerDriver(t, h, part)
	ref.atBarrier = func(barrierTag) error { return errPeerLost }
	if _, err := ref.run(); !errors.Is(err, errPeerLost) {
		t.Fatalf("reference run: err = %v, want it stopped at its first vote", err)
	}
	if rb1 := ref.bar; rb1.k != b1.k || rb1.round != b1.round || !slices.Equal(rb1.dying, b1.dying) {
		t.Fatalf("reference voted (%d, %d), worker voted (%d, %d)", rb1.k, rb1.round, b1.k, b1.round)
	}
	if got, want := d.w.peeler.Checkpoint(nil), ref.w.peeler.Checkpoint(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("replica rolled back to B1 differs from the reference at B1:\n got %+v\nwant %+v", got, want)
	}

	d.atBarrier, d.bar = nil, b1
	got, err := d.run()
	if err != nil {
		t.Fatal(err)
	}
	want := core.Decompose(h)
	if got.MaxK != want.MaxK || !slices.Equal(got.VertexCoreness, want.VertexCoreness) || !slices.Equal(got.EdgeCoreness, want.EdgeCoreness) {
		t.Fatal("the continuation from the rolled-back replica differs from Decompose")
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
