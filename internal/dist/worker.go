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
	// DefaultHeartbeatInterval.
	HeartbeatInterval time.Duration
}

func (o WorkerOptions) normalized() WorkerOptions {
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = DefaultHeartbeatInterval
	}
	return o
}

// errShutdown signals a clean coordinator-requested exit.
var errShutdown = errors.New("dist: shutdown requested")

// errBeforeLoad rejects a frame that needs the replica, which only a
// Load frame builds.
var errBeforeLoad = errors.New("dist: frame before Load")

// workerState is one worker's side of the protocol: the replica, the
// connection and the buffers of its single loop.  The replica keeps no
// barrier state of its own: every Assign, the first included, carries
// what it needs to rebuild it.
type workerState struct {
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

	peeler *core.DistPeeler

	hbPanic atomic.Pointer[core.WorkerPanicError]
}

// ServeWorker runs one worker over conn until the coordinator sends
// Shutdown, the connection drops, or ctx is cancelled.  A frame it
// cannot serve ends it with the error, and no frame reports it: the
// caller closes conn, which the coordinator reads as the worker's
// death.  It recovers panics (including injected ones) into a
// *core.WorkerPanicError so a worker process, or an in-process worker
// goroutine, always fails as a typed error rather than a crash.
func ServeWorker(ctx context.Context, conn net.Conn, opts WorkerOptions) (err error) {
	defer func() {
		if x := recover(); x != nil {
			stack := make([]byte, 16<<10)
			stack = stack[:runtime.Stack(stack, false)]
			err = &core.WorkerPanicError{Value: x, Stack: stack}
		}
	}()
	w := &workerState{conn: conn, opts: opts.normalized()}
	hello := msgHello{ID: int32(w.opts.ID)}
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

// send writes one frame under the write lock.  A failed send ends
// ServeWorker, and the coordinator recovers the run as from any other
// worker death.
func (w *workerState) send(typ byte, frame []byte) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	return writeFrame(w.conn, typ, frame)
}

//hyperplexvet:wirerecv
func (w *workerState) handle(ctx context.Context, typ byte, payload []byte) error {
	if w.peeler == nil && typ != mLoad && typ != mHeartbeat && typ != mShutdown {
		return fmt.Errorf("%w: frame type %d", errBeforeLoad, typ)
	}
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

// load builds the replica from a Load: the hypergraph from its rows
// and, from the hypergraph and the shard count, the partition the
// coordinator built, since partition.BuildCtx is deterministic.
func (w *workerState) load(ctx context.Context, m *msgLoad) error {
	// The rows are wire input: FromRows checks their offsets and
	// members before it sorts, compacts and assembles them in place.
	h, err := hypergraph.FromRows(int(m.NumV), m.EOff, m.EAdj)
	if err != nil {
		return fmt.Errorf("%w: load graph: %w", ErrCorruptFrame, err)
	}
	// The coordinator ships a normalized count, which BuildCtx would
	// keep; any other count would give a different partition.
	if n := partition.NormalizeShards(int(m.Shards), h.NumVertices()); n != int(m.Shards) {
		return fmt.Errorf("%w: load names %d shards, the shard-count policy gives %d at %d vertices", ErrCorruptFrame, m.Shards, n, h.NumVertices())
	}
	part, err := partition.BuildCtx(ctx, h, int(m.Shards))
	if err != nil {
		return fmt.Errorf("dist: load partition: %w", err)
	}
	w.peeler = core.NewDistPeeler(h, part)
	return nil
}

// assign restores the replica to the committed barrier the
// coordinator's logs give, with the shards it lists, and answers with
// the Barrier vote of the dying hyperedges the restore re-derived.
func (w *workerState) assign(ctx context.Context, m *msgAssign) error {
	if err := w.peeler.Restore(ctx, m.Dead, m.Retired, m.Shards); err != nil {
		return err
	}
	return w.vote(mBarrier, m.K, m.Round, w.peeler.PendingDying())
}

// apply runs the replica's Apply and answers with the Frontier vote:
// the retired IDs it returns.
func (w *workerState) apply(ctx context.Context, m *msgRound) error {
	retired, err := w.peeler.Apply(ctx, int(m.K), m.IDs)
	if err != nil {
		return err
	}
	return w.vote(mFrontier, m.K, m.Round, retired)
}

// shrink runs the replica's Shrink and answers with the Barrier vote:
// the dying hyperedges its shards found.
func (w *workerState) shrink(ctx context.Context, m *msgRound) error {
	dying, err := w.peeler.Shrink(ctx, int(m.K), m.IDs)
	if err != nil {
		return err
	}
	return w.vote(mBarrier, m.K, m.Round, dying)
}

// vote sends a vote of type typ for round (k, round).
func (w *workerState) vote(typ byte, k, round int32, ids []int32) error {
	reply := msgRound{K: k, Round: round, IDs: ids}
	w.out = reply.encode(w.out)
	return w.send(typ, w.out)
}
