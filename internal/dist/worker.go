package dist

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hyperplex/internal/core"
	"hyperplex/internal/failpoint"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/partition"
)

// fpHeartbeat fires before every heartbeat send; the chaos suite's
// panic arm turns it into a mid-round worker death.
var fpHeartbeat = failpoint.Register("dist.heartbeat")

// WorkerOptions tunes one worker connection.
type WorkerOptions struct {
	// ID is the worker identity assigned by the spawner, echoed in the
	// Hello handshake so the coordinator can pair this connection with
	// the process it launched whatever order the pool dialed in.
	ID int
	// HeartbeatInterval is the beacon period; the coordinator declares
	// a silent worker dead after several missed beats.  Defaults to
	// 100ms.
	HeartbeatInterval time.Duration
}

func (o WorkerOptions) normalized() WorkerOptions {
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 100 * time.Millisecond
	}
	return o
}

// errShutdown signals a clean coordinator-requested exit.
var errShutdown = errors.New("dist: shutdown requested")

// tagged is one checkpoint slot: the peel state at barrier (k, round).
type tagged struct {
	k, round int32
	cp       *core.PeelCheckpoint
}

// workerState is one worker's side of the protocol: the replica, the
// connection, the buffers of its single loop, and the barrier
// checkpoint slots.  pending holds the checkpoint taken when the worker
// voted at the latest barrier; the next Apply frame proves the
// coordinator committed that barrier and promotes it to committed.  A
// Rollback frame names one of the two tags; anything else is a protocol
// violation.  spare is a checkpoint neither tag can name any more: the
// next checkpoint is written into its buffers, and it is the only slot
// ever overwritten, so a barrier costs no replica-sized allocation.
type workerState struct {
	//hyperplexvet:ignore ctxfirst scoped to one ServeWorker call tree, mirroring coordinator
	ctx  context.Context
	conn net.Conn
	opts WorkerOptions

	wmu sync.Mutex // serializes frame writes (main loop vs heartbeat)

	// The loop reads every frame into in, decodes per-round frames into
	// msg and Assign frames into asn, and encodes every reply into out;
	// each is reused once the frame it holds is handled.  A Load
	// payload is read into a fresh buffer that in does not keep: it is
	// the one frame of its size a run ships.
	in  []byte
	msg msgRound
	asn msgAssign
	out []byte

	h      *hypergraph.Hypergraph
	part   *partition.Partition
	peeler *core.DistPeeler

	epoch                     uint32
	pending, committed, spare *tagged

	hbPanic atomic.Pointer[core.WorkerPanicError]
}

// ServeWorker runs one worker over conn until the coordinator sends
// Shutdown, the connection drops, or ctx is cancelled.  It recovers
// panics (including injected ones) into a *core.WorkerPanicError so a
// worker process, or an in-process worker goroutine, always fails as a
// typed error rather than a crash.
func ServeWorker(ctx context.Context, conn net.Conn, opts WorkerOptions) (err error) {
	defer func() {
		if x := recover(); x != nil {
			stack := make([]byte, 16<<10)
			stack = stack[:runtime.Stack(stack, false)]
			err = &core.WorkerPanicError{Value: x, Stack: stack}
		}
	}()
	w := &workerState{ctx: ctx, conn: conn, opts: opts.normalized()}
	hello := msgHello{Version: protoVersion, ID: int32(w.opts.ID)}
	if err := w.send(mHello, hello.encode(nil)); err != nil {
		return err
	}

	// One sidecar goroutine: heartbeats on a ticker, and closes the
	// connection when ctx is cancelled so the read loop unblocks.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if x := recover(); x != nil {
				// An injected heartbeat panic is a worker death: record
				// it and sever the connection so both ends notice.
				stack := make([]byte, 16<<10)
				stack = stack[:runtime.Stack(stack, false)]
				w.hbPanic.Store(&core.WorkerPanicError{Value: x, Stack: stack})
				_ = conn.Close()
			}
		}()
		w.heartbeatLoop(ctx, stop)
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	rd := bufio.NewReader(conn)
	for {
		typ, payload, rerr := readFrame(rd, maxFramePayload, w.in)
		if rerr != nil {
			if p := w.hbPanic.Load(); p != nil {
				return p
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if errors.Is(rerr, io.EOF) {
				return nil // coordinator hung up cleanly
			}
			return rerr
		}
		if typ != mLoad {
			w.in = payload
		}
		if herr := w.handle(ctx, typ, payload); herr != nil {
			if errors.Is(herr, errShutdown) {
				return nil
			}
			w.report(herr)
			return herr
		}
	}
}

// heartbeatLoop beacons until stop closes; on ctx cancellation it
// severs the connection to unblock the main read loop.
func (w *workerState) heartbeatLoop(ctx context.Context, stop <-chan struct{}) {
	ticker := time.NewTicker(w.opts.HeartbeatInterval)
	defer ticker.Stop()
	beat := newEnc(nil).b
	for {
		select {
		case <-stop:
			return
		case <-ctx.Done():
			_ = w.conn.Close()
			return
		case <-ticker.C:
			if err := failpoint.Inject(fpHeartbeat); err != nil {
				continue // beat skipped; enough of these reads as death
			}
			w.wmu.Lock()
			err := writeFrame(w.conn, mHeartbeat, beat)
			w.wmu.Unlock()
			if err != nil && !errors.Is(err, failpoint.ErrInjected) {
				return // connection is gone; the main loop will notice
			}
		}
	}
}

// send writes one frame under the write lock with bounded retry.
func (w *workerState) send(typ byte, frame []byte) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	return sendRetry(w.ctx, w.conn, typ, frame, sendRetries)
}

// report best-effort ships a typed failure to the coordinator before
// the worker gives up.
func (w *workerState) report(err error) {
	m := msgError{Epoch: w.epoch, Text: err.Error()}
	w.out = m.encode(w.out)
	_ = w.send(mError, w.out)
}

//hyperplexvet:wirerecv
func (w *workerState) handle(ctx context.Context, typ byte, payload []byte) error {
	switch typ {
	case mLoad:
		var m msgLoad
		if err := m.decode(payload); err != nil {
			return err
		}
		return w.load(ctx, &m)
	case mAssign:
		if err := w.asn.decode(payload); err != nil {
			return err
		}
		return w.assign(ctx, &w.asn)
	case mRollback:
		if err := w.msg.decode(payload); err != nil {
			return err
		}
		return w.rollback(&w.msg)
	case mApply:
		if err := w.msg.decode(payload); err != nil {
			return err
		}
		return w.apply(ctx, &w.msg)
	case mShrink:
		if err := w.msg.decode(payload); err != nil {
			return err
		}
		return w.shrink(ctx, &w.msg)
	case mShutdown:
		return errShutdown
	case mHeartbeat:
		return nil
	default:
		return fmt.Errorf("%w: unexpected frame type %d at worker", ErrCorruptFrame, typ)
	}
}

// peelerOrNil returns the replica; frames arriving before Load are a
// coordinator bug and surface as the nil-pointer panic recovered at
// ServeWorker into a typed error, so no silent wrong answers.
func (w *workerState) peelerOrNil() *core.DistPeeler { return w.peeler }

func (w *workerState) load(ctx context.Context, m *msgLoad) error {
	w.epoch = m.Epoch
	// The rows are wire input: FromRows checks their offsets and
	// members before it sorts, compacts and assembles them in place.
	h, err := hypergraph.FromRows(int(m.NumV), m.EOff, m.EAdj)
	if err != nil {
		return fmt.Errorf("dist: load graph: %w", err)
	}
	part, err := partition.FromDescsCtx(ctx, h, m.Descs)
	if err != nil {
		return fmt.Errorf("dist: load partition: %w", err)
	}
	w.h, w.part = h, part
	w.peeler = core.NewDistPeeler(h, part)
	w.pending, w.committed, w.spare = nil, nil, nil
	return nil
}

// checkpoint checkpoints the replica at barrier (k, round) into the
// spare slot's buffers, or a fresh checkpoint when there is no spare,
// and returns it; the spare slot is left empty.
func (w *workerState) checkpoint(k, round int32) *tagged {
	t := w.spare
	w.spare = nil
	if t == nil {
		t = &tagged{}
	}
	t.k, t.round = k, round
	t.cp = w.peeler.Checkpoint(t.cp)
	return t
}

// release keeps t, a checkpoint neither tag names any more, as the
// spare.
func (w *workerState) release(t *tagged) {
	if t != nil {
		w.spare = t
	}
}

func (w *workerState) assign(ctx context.Context, m *msgAssign) error {
	w.epoch = m.Epoch
	if w.peeler == nil {
		return errors.New("dist: assign before load")
	}
	var snaps []*core.ShardSnapshot
	for _, s := range m.Fresh {
		if s < 0 || int(s) >= w.peeler.NumShards() {
			return fmt.Errorf("dist: assign of unknown shard %d", s)
		}
		if err := w.peeler.AssignFresh(ctx, int(s)); err != nil {
			return err
		}
		snaps = append(snaps, w.peeler.Snapshot(int(s)))
	}
	for _, sn := range m.Snaps {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := w.peeler.AssignSnapshot(sn); err != nil {
			return err
		}
	}
	// The replica now holds barrier (K, Round) state including the new
	// shards; re-checkpoint it as the committed slot.
	t := w.checkpoint(m.K, m.Round)
	w.release(w.pending)
	w.release(w.committed)
	w.committed, w.pending = t, nil
	if len(m.Fresh) > 0 {
		b := msgBarrier{Epoch: w.epoch, K: m.K, Round: m.Round, Snaps: snaps}
		w.out = b.encode(w.out)
		return w.send(mBarrier, w.out)
	}
	return nil
}

func (w *workerState) rollback(m *msgRound) error {
	w.epoch = m.Epoch
	if m.Round < 0 {
		// Full reset: the pool died before the first barrier committed.
		if w.h == nil {
			return errors.New("dist: reset before load")
		}
		w.peeler = core.NewDistPeeler(w.h, w.part)
		w.pending, w.committed, w.spare = nil, nil, nil
		return nil
	}
	var cp, other *tagged
	switch {
	case w.pending != nil && w.pending.k == m.K && w.pending.round == m.Round:
		cp, other = w.pending, w.committed
	case w.committed != nil && w.committed.k == m.K && w.committed.round == m.Round:
		cp, other = w.committed, w.pending
	default:
		return fmt.Errorf("dist: no checkpoint for barrier k=%d round=%d", m.K, m.Round)
	}
	if err := w.peeler.Restore(cp.cp); err != nil {
		return err
	}
	w.release(other)
	w.committed, w.pending = cp, nil
	return nil
}

// apply runs the replica's Apply and answers with the Frontier vote:
// the retired IDs and the alive count it returns.
func (w *workerState) apply(ctx context.Context, m *msgRound) error {
	w.epoch = m.Epoch
	// An Apply frame means the coordinator committed the barrier this
	// worker last voted for: promote the tentative checkpoint.
	if w.pending != nil {
		w.release(w.committed)
		w.committed, w.pending = w.pending, nil
	}
	retired, alive, err := w.peelerOrNil().Apply(ctx, int(m.K), m.IDs)
	if err != nil {
		return err
	}
	reply := msgRound{Epoch: w.epoch, K: m.K, Round: m.Round, IDs: retired, Alive: int32(alive)}
	w.out = reply.encode(w.out)
	return w.send(mFrontier, w.out)
}

func (w *workerState) shrink(ctx context.Context, m *msgRound) error {
	w.epoch = m.Epoch
	if _, err := w.peelerOrNil().Shrink(ctx, int(m.K), m.IDs); err != nil {
		return err
	}
	// Tentative checkpoint: this barrier is committed only once every
	// worker's vote lands, which the next Apply frame confirms.  The
	// vote ships the checkpoint's own shard snapshots.
	t := w.checkpoint(m.K, m.Round)
	w.release(w.pending)
	w.pending = t
	b := msgBarrier{Epoch: w.epoch, K: m.K, Round: m.Round, Snaps: t.cp.Shards}
	w.out = b.encode(w.out)
	return w.send(mBarrier, w.out)
}
