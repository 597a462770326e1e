package dist

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os/exec"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hyperplex/internal/core"
	"hyperplex/internal/csr"
	"hyperplex/internal/failpoint"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/partition"
	"hyperplex/internal/run"
)

// fpReassign fires at the start of every worker-death recovery; an
// injected error there declares the pool failed (exercising the
// local-fallback path).
var fpReassign = failpoint.Register("dist.reassign")

// errWorkerLost is the internal signal that at least one worker died
// mid-phase; the coordinator's Resume answers it with a recovery, and
// the round schedule replays from the last committed barrier.
var errWorkerLost = errors.New("dist: worker lost")

type frameMsg struct {
	typ     byte
	payload []byte
}

// remoteWorker is the coordinator's handle on one worker: its
// connection, its inbound frames, and its last-heard-from clock (any
// frame counts, heartbeats exist to keep it fresh while the worker
// computes).  The reader goroutine owns each payload until it hands it
// over on frames; the consumer hands it back on free once decoded, and
// the reader reads a later frame into it.
type remoteWorker struct {
	id       int
	conn     net.Conn
	frames   chan frameMsg
	free     chan []byte
	lastBeat atomic.Int64 // unix nanos of the last frame received
	dead     bool
	cmd      *exec.Cmd // non-nil when spawned as an OS process
}

func (rw *remoteWorker) alive() bool { return rw != nil && !rw.dead }

// recycle hands a decoded payload back to rw's reader; when the reader
// has enough spare buffers it is dropped.
func (rw *remoteWorker) recycle(payload []byte) {
	select {
	case rw.free <- payload:
	default:
	}
}

// coordinator drives the worker pool.  It is the core.Rounds of a
// distributed run: core.RunRounds calls its Apply and Shrink, which
// broadcast one frame each and await every live worker's reply, and
// its Resume, which recovers the pool after a worker death.  RunRounds
// records the decomposition from the deltas, so the IDs the workers
// vote are checked before they reach it.
type coordinator struct {
	//hyperplexvet:ignore ctxfirst scoped to one runCoordinator call tree
	ctx   context.Context
	meter *run.Meter
	opts  Options
	h     *hypergraph.Hypergraph
	part  *partition.Partition

	ln       net.Listener
	accepted []net.Conn // every accepted conn, for panic-safe teardown
	workers  []*remoteWorker
	wg       sync.WaitGroup // reader goroutines + in-process workers
	done     chan struct{}

	epoch uint32
	owner []int // shard → worker id, -1 before the first deal

	// The replay point: the last committed barrier's (k, round) tag and
	// dying union, which the round after it applies, and the logs of
	// the committed rounds' deltas, every hyperedge they killed and
	// every vertex they retired, from which every Assign rebuilds the
	// workers' replicas.
	dying               []int32
	deadLog, retiredLog []int32
	barK                int32
	barRound            int32

	// spareDying is the buffer the next barrier's votes build their
	// dying union in; commit swaps it with dying, so a collection cut
	// short by a death leaves the replay point intact.
	spareDying []int32

	// Reused across rounds: out holds every frame the coordinator sends
	// except Load; vote is the decode target of the Frontier and Barrier
	// votes; retired gathers the round's retired delta off the votes;
	// timer times every await.
	out     []byte
	vote    msgRound
	retired []int32
	timer   *time.Timer

	// seen[id] == gen marks a vertex or hyperedge ID the vote under
	// check has named, so a repeat is caught (newGen); it is sized for
	// both sides and cleared only on the int32 wraparound.
	seen []int32
	gen  int32

	recoveries int
}

func runCoordinator(ctx context.Context, meter *run.Meter, h *hypergraph.Hypergraph, opts Options) (*core.Decomposition, error) {
	c := &coordinator{ctx: ctx, meter: meter, opts: opts, h: h, done: make(chan struct{})}
	defer c.teardown()
	if err := c.setup(); err != nil {
		return nil, err
	}
	if err := c.assign(); err != nil {
		if _, _, err := c.Resume(err); err != nil {
			return nil, err
		}
	}
	return core.RunRounds(ctx, c, h, c.dying, math.MaxInt)
}

// Resume answers a worker death with recovery, attempted again while
// further deaths interrupt it, until the pool is consistent, the
// recovery budget runs out, or a fatal error surfaces.  It returns the
// last committed barrier's k and dying delta, the replay point; any
// other error is final.
func (c *coordinator) Resume(err error) (int, []int32, error) {
	for errors.Is(err, errWorkerLost) {
		err = c.recoverPool()
	}
	if err != nil {
		return 0, nil, err
	}
	return int(c.barK), c.dying, nil
}

// setup builds the partition, starts the listener, spawns the pool,
// and ships Load, the shard count and the hypergraph's rows, to every
// joined worker.
func (c *coordinator) setup() error {
	part, err := partition.BuildCtx(c.ctx, c.h, c.opts.Shards)
	if err != nil {
		return err
	}
	c.part = part
	c.owner = make([]int, part.NumShards())
	for s := range c.owner {
		c.owner[s] = -1
	}
	c.seen = make([]int32, max(len(part.VertexOwner), len(part.EdgeOwner)))
	// Each hyperedge dies and each vertex retires in one committed round.
	c.deadLog = make([]int32, 0, c.h.NumEdges())
	c.retiredLog = make([]int32, 0, c.h.NumVertices())

	ln, err := net.Listen("tcp", c.opts.Listen)
	if err != nil {
		return fmt.Errorf("dist: listen: %w", err)
	}
	c.ln = ln
	addr := ln.Addr().String()
	for i := 0; i < c.opts.Workers; i++ {
		if err := c.ctx.Err(); err != nil {
			return err
		}
		if err := c.spawn(i, addr); err != nil {
			return err
		}
	}
	if err := c.join(); err != nil {
		return err
	}

	g := c.h.CSR()
	load := msgLoad{Epoch: c.epoch, Shards: csr.MustInt32(part.NumShards()), NumV: csr.MustInt32(c.h.NumVertices()), EOff: g.EOff, EAdj: g.EAdj}
	// The Load frame is the one frame of its size; out does not keep it.
	frame := load.encode(nil)
	for _, rw := range c.workers {
		if err := c.ctx.Err(); err != nil {
			return err
		}
		if !rw.alive() {
			continue
		}
		if err := writeFrame(rw.conn, mLoad, frame); err != nil {
			c.kill(rw)
		}
	}
	if len(c.aliveWorkers()) == 0 {
		return fmt.Errorf("%w: no workers survived load", ErrPoolFailed)
	}
	return nil
}

// spawn starts worker i: an OS process running Options.WorkerCommand,
// or an in-process goroutine serving the same protocol over loopback.
func (c *coordinator) spawn(i int, addr string) error {
	if len(c.opts.WorkerCommand) > 0 {
		argv := append(append([]string(nil), c.opts.WorkerCommand...),
			"-connect", addr, "-id", strconv.Itoa(i),
			"-heartbeat", c.opts.HeartbeatInterval.String())
		cmd := exec.CommandContext(c.ctx, argv[0], argv[1:]...)
		cmd.Stderr = c.opts.WorkerStderr
		if err := cmd.Start(); err != nil {
			// An unstartable pool is a pool failure like an unjoined
			// one, so LocalFallback covers a missing worker binary.
			return fmt.Errorf("%w: spawn worker %d: %w", ErrPoolFailed, i, err)
		}
		c.workers = append(c.workers, &remoteWorker{id: i, cmd: cmd})
		return nil
	}
	c.workers = append(c.workers, &remoteWorker{id: i})
	wopts := WorkerOptions{ID: i, HeartbeatInterval: c.opts.HeartbeatInterval}
	ctx := c.ctx
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		defer func() {
			// An in-process worker must never crash the coordinator;
			// its death is detected through the severed connection.
			_ = recover()
		}()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		_ = ServeWorker(ctx, conn, wopts)
		_ = conn.Close()
	}()
	return nil
}

// join accepts pool connections and their Hello handshakes until every
// spawned worker connected or the phase deadline passes; a partial
// pool proceeds, an empty one is a pool failure.  Each connection is
// paired with the worker slot its Hello names — never with the accept
// order, which under concurrent dials matches the spawn order only by
// luck, and a mispairing would aim every kill (and its Process.Kill)
// at the wrong process.
func (c *coordinator) join() error {
	deadline := time.Now().Add(c.opts.PhaseTimeout)
	tl, ok := c.ln.(*net.TCPListener)
	if !ok {
		return fmt.Errorf("dist: listener is %T, want *net.TCPListener", c.ln)
	}
	joined := 0
	for range c.workers {
		if c.ctx.Err() != nil {
			return c.ctx.Err()
		}
		if err := tl.SetDeadline(deadline); err != nil {
			return fmt.Errorf("dist: listener deadline: %w", err)
		}
		conn, err := tl.Accept()
		if err != nil {
			break // deadline passed; proceed with the joined pool
		}
		// Track the conn before the handshake: if an injected fault
		// panics out of hello, teardown still severs it, so the worker
		// behind it cannot be left blocked on a read.
		c.accepted = append(c.accepted, conn)
		rd := bufio.NewReader(conn)
		var id int
		if err = conn.SetReadDeadline(deadline); err == nil {
			id, err = c.hello(rd)
		}
		if err == nil && (id < 0 || id >= len(c.workers) || c.workers[id].conn != nil) {
			err = fmt.Errorf("%w: hello claims worker slot %d", ErrCorruptFrame, id)
		}
		if err != nil {
			_ = conn.Close()
			continue
		}
		rw := c.workers[id]
		_ = conn.SetReadDeadline(time.Time{})
		rw.conn = conn
		rw.frames = make(chan frameMsg, 4)
		// free holds as many buffers as frames can queue payloads, so
		// a recycled buffer is dropped only when more frames than that
		// were read ahead of their consumer.
		rw.free = make(chan []byte, cap(rw.frames))
		rw.lastBeat.Store(time.Now().UnixNano())
		c.startReader(rw, rd)
		joined++
	}
	for _, rw := range c.workers {
		if rw.conn == nil {
			rw.dead = true
		}
	}
	if joined == 0 {
		return fmt.Errorf("%w: no workers joined within %v", ErrPoolFailed, c.opts.PhaseTimeout)
	}
	return nil
}

// hello validates one join handshake read off rd and returns the
// worker ID the connection claims.
func (c *coordinator) hello(rd *bufio.Reader) (int, error) {
	typ, payload, err := readFrame(rd, 64, nil)
	if err != nil {
		return 0, err
	}
	if typ != mHello {
		return 0, fmt.Errorf("%w: join frame type %d, want Hello", ErrCorruptFrame, typ)
	}
	var m msgHello
	if err := m.decode(payload); err != nil {
		return 0, err
	}
	return int(m.ID), nil
}

// startReader reads rw's inbound frames off rd, the connection's one
// buffered reader, into its channel; any read failure (connection
// death, corrupt frame, injected fault) closes the channel, which every
// consumer treats as worker death.  Heartbeats are read into the same
// buffer over and over; after handing a frame over, the reader takes a
// recycled buffer, or reads the next frame into a fresh one.
func (c *coordinator) startReader(rw *remoteWorker, rd *bufio.Reader) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		defer func() {
			_ = recover() // an injected recv panic is a dead worker, not a crash
			close(rw.frames)
		}()
		var buf []byte
		for {
			typ, payload, err := readFrame(rd, maxFramePayload, buf)
			if err != nil {
				return
			}
			rw.lastBeat.Store(time.Now().UnixNano())
			if typ == mHeartbeat {
				buf = payload
				continue
			}
			select {
			case rw.frames <- frameMsg{typ: typ, payload: payload}:
			case <-c.done:
				return
			}
			select {
			case buf = <-rw.free:
			default:
				buf = nil
			}
		}
	}()
}

func (c *coordinator) aliveWorkers() []*remoteWorker {
	var out []*remoteWorker
	for _, rw := range c.workers {
		if rw.alive() {
			out = append(out, rw)
		}
	}
	return out
}

// kill marks a worker dead and severs its connection; its reader
// goroutine and (for processes) a bounded Wait are cleaned up here and
// at teardown.
func (c *coordinator) kill(rw *remoteWorker) {
	if rw.dead {
		return
	}
	rw.dead = true
	if rw.conn != nil {
		_ = rw.conn.Close()
	}
	if rw.cmd != nil && rw.cmd.Process != nil {
		_ = rw.cmd.Process.Kill()
	}
}

// broadcast sends one frame to every live worker; send failure kills
// the worker and reports the loss after the sweep completes.
func (c *coordinator) broadcast(typ byte, frame []byte) error {
	lost := false
	for _, rw := range c.workers {
		if err := c.ctx.Err(); err != nil {
			return err
		}
		if !rw.alive() {
			continue
		}
		if err := writeFrame(rw.conn, typ, frame); err != nil {
			c.kill(rw)
			lost = true
		}
	}
	if lost {
		return errWorkerLost
	}
	return nil
}

// arm resets the await timer to fire once after d and returns its
// channel.  A tick left in the channel by an expiry nobody received
// is drained first.
func (c *coordinator) arm(d time.Duration) <-chan time.Time {
	if c.timer == nil {
		c.timer = time.NewTimer(d)
		return c.timer.C
	}
	if !c.timer.Stop() {
		select {
		case <-c.timer.C:
		default:
		}
	}
	c.timer.Reset(d)
	return c.timer.C
}

// await blocks for the next current-epoch frame from rw, expecting
// want, and returns its payload, which the caller may hand back with
// rw.recycle once it is decoded.  Stale-epoch frames (replies raced by
// a recovery) are dropped; a closed channel, an Error frame, a
// protocol violation, a missed-heartbeat window or the phase deadline
// all kill the worker and report errWorkerLost; context and budget
// failures surface as-is.
//
//hyperplexvet:wirerecv
func (c *coordinator) await(rw *remoteWorker, want byte) ([]byte, error) {
	deadline := time.Now().Add(c.opts.PhaseTimeout)
	missWindow := 4 * c.opts.HeartbeatInterval
	for {
		tick := c.opts.HeartbeatInterval
		if until := time.Until(deadline); until < tick {
			tick = until
		}
		if tick <= 0 {
			c.kill(rw)
			return nil, fmt.Errorf("%w: worker %d phase deadline", errWorkerLost, rw.id)
		}
		select {
		case fm, ok := <-rw.frames:
			if !ok {
				c.kill(rw)
				return nil, fmt.Errorf("%w: worker %d connection", errWorkerLost, rw.id)
			}
			ep, ok := peekEpoch(fm.payload)
			if !ok {
				c.kill(rw)
				return nil, fmt.Errorf("%w: worker %d sent an epochless frame", errWorkerLost, rw.id)
			}
			if ep != c.epoch {
				rw.recycle(fm.payload)
				continue // stale reply from before a recovery
			}
			if fm.typ == mError {
				var m msgError
				_ = m.decode(fm.payload)
				c.kill(rw)
				return nil, fmt.Errorf("%w: worker %d failed: %s", errWorkerLost, rw.id, m.Text)
			}
			if fm.typ != want {
				c.kill(rw)
				return nil, fmt.Errorf("%w: worker %d sent frame type %d, want %d", errWorkerLost, rw.id, fm.typ, want)
			}
			return fm.payload, nil
		case <-c.ctx.Done():
			return nil, c.ctx.Err()
		case <-c.arm(tick):
			if time.Since(time.Unix(0, rw.lastBeat.Load())) > missWindow {
				c.kill(rw)
				return nil, fmt.Errorf("%w: worker %d missed heartbeats", errWorkerLost, rw.id)
			}
		}
	}
}

// assign deals every shard no live worker owns round-robin over the
// live pool, which at the first deal is every shard, and sends every
// live worker one Assign, with the logs and every shard it owns, from
// which it rebuilds its replica at the last committed barrier: (0, 0)
// with empty logs before any round.  The union of the workers' Barrier
// votes is the barrier's dying union again, the same hyperedges as
// before a recovery, and commits it at the same tag.
func (c *coordinator) assign() error {
	alive := c.aliveWorkers()
	if len(alive) == 0 {
		return fmt.Errorf("%w: no live workers", ErrPoolFailed)
	}
	for s, id := range c.owner {
		if id < 0 || !c.workers[id].alive() {
			c.owner[s] = alive[s%len(alive)].id
		}
	}
	var shards []int32
	for _, rw := range alive {
		if err := c.ctx.Err(); err != nil {
			return err
		}
		shards = shards[:0]
		for s, id := range c.owner {
			if id == rw.id {
				shards = append(shards, int32(s))
			}
		}
		m := msgAssign{Epoch: c.epoch, K: c.barK, Round: c.barRound, Shards: shards, Dead: c.deadLog, Retired: c.retiredLog}
		if err := c.sendAssign(rw, &m); err != nil {
			return err
		}
	}
	c.spareDying = c.spareDying[:0]
	for _, rw := range alive {
		if err := c.awaitBarrier(rw, c.barK, c.barRound); err != nil {
			return err
		}
	}
	c.commit(c.barK, c.barRound)
	return nil
}

// sendAssign sends rw an Assign frame; a failed send kills rw.
func (c *coordinator) sendAssign(rw *remoteWorker, m *msgAssign) error {
	c.out = m.encode(c.out)
	if err := writeFrame(rw.conn, mAssign, c.out); err != nil {
		c.kill(rw)
		return errWorkerLost
	}
	return nil
}

// awaitVote awaits rw's vote of type want for round (k, round), decodes
// it into c.vote and checks the IDs it names against owner, the
// partition's vertex or hyperedge owners: each must lie in
// [0, len(owner)) in a shard rw owns, named once.  RunRounds indexes
// the coreness arrays with them and the next broadcast hands them to
// every worker, so a vote with any other ID or a repeat kills rw.
func (c *coordinator) awaitVote(rw *remoteWorker, want byte, k, round int32, owner []int32, what string) error {
	if err := c.awaitDecode(rw, want, &c.vote); err != nil {
		return err
	}
	if c.vote.K != k || c.vote.Round != round {
		c.kill(rw)
		return fmt.Errorf("%w: worker %d voted at (%d,%d), want (%d,%d)", errWorkerLost, rw.id, c.vote.K, c.vote.Round, k, round)
	}
	gen := c.newGen()
	//hyperplexvet:ignore budgettick bounded validation pass over one decoded vote; kill runs on the error path only
	for _, id := range c.vote.IDs {
		if id < 0 || int(id) >= len(owner) || c.owner[owner[id]] != rw.id {
			c.kill(rw)
			return fmt.Errorf("%w: worker %d voted %s %d, which no shard it owns holds", errWorkerLost, rw.id, what, id)
		}
		if c.seen[id] == gen {
			c.kill(rw)
			return fmt.Errorf("%w: worker %d voted %s %d twice", errWorkerLost, rw.id, what, id)
		}
		c.seen[id] = gen
	}
	return nil
}

// awaitBarrier awaits rw's Barrier vote for (k, round) and adds the
// dying hyperedges it names to the spare dying union.
func (c *coordinator) awaitBarrier(rw *remoteWorker, k, round int32) error {
	if err := c.awaitVote(rw, mBarrier, k, round, c.part.EdgeOwner, "dying hyperedge"); err != nil {
		return err
	}
	c.spareDying = append(c.spareDying, c.vote.IDs...)
	return nil
}

// awaitDecode awaits rw's next frame of type want, decodes it into m
// and hands the payload back to rw's reader; a frame that does not
// decode kills the worker.
func (c *coordinator) awaitDecode(rw *remoteWorker, want byte, m interface{ decode([]byte) error }) error {
	payload, err := c.await(rw, want)
	if err != nil {
		return err
	}
	if err := m.decode(payload); err != nil {
		c.kill(rw)
		return fmt.Errorf("%w: worker %d: %w", errWorkerLost, rw.id, err)
	}
	rw.recycle(payload)
	return nil
}

// Apply broadcasts a round's dying delta at threshold k and gathers
// the workers' frontier votes: the union of the retired IDs they
// carry, each of which must be a vertex of a shard its voter owns,
// named once.
func (c *coordinator) Apply(ctx context.Context, k int, dying []int32) ([]int32, error) {
	if err := run.Tick(ctx, c.meter, int64(len(dying))+1); err != nil {
		return nil, err
	}
	apply := msgRound{Epoch: c.epoch, K: int32(k), Round: c.barRound, IDs: dying}
	c.out = apply.encode(c.out)
	if err := c.broadcast(mApply, c.out); err != nil {
		return nil, err
	}
	c.retired = c.retired[:0]
	for _, rw := range c.workers {
		if !rw.alive() {
			continue
		}
		if err := c.awaitVote(rw, mFrontier, int32(k), c.barRound, c.part.VertexOwner, "retired vertex"); err != nil {
			return nil, err
		}
		c.retired = append(c.retired, c.vote.IDs...)
	}
	return c.retired, nil
}

// newGen advances the generation that marks a vote's IDs in seen,
// clearing seen on the (rare) int32 wraparound so stale marks cannot
// alias.
func (c *coordinator) newGen() int32 {
	if c.gen == math.MaxInt32 {
		c.gen = 0
		clear(c.seen)
	}
	c.gen++
	return c.gen
}

// Shrink broadcasts the retired delta of the round at threshold k,
// collects every worker's Barrier vote and commits the barrier: the
// union of the votes' dying hyperedges becomes the replay point and
// the next round's dying delta.
func (c *coordinator) Shrink(_ context.Context, k int, retired []int32) ([]int32, error) {
	newRound := c.barRound + 1
	shrink := msgRound{Epoch: c.epoch, K: int32(k), Round: newRound, IDs: retired}
	c.out = shrink.encode(c.out)
	if err := c.broadcast(mShrink, c.out); err != nil {
		return nil, err
	}
	c.spareDying = c.spareDying[:0]
	for _, rw := range c.workers {
		if !rw.alive() {
			continue
		}
		if err := c.awaitBarrier(rw, int32(k), newRound); err != nil {
			return nil, err
		}
	}
	// The round applied the dying union committed before it, which
	// RunRounds hands every Apply, so that union and the round's retired
	// delta join the logs.
	c.deadLog = append(c.deadLog, c.dying...)
	c.retiredLog = append(c.retiredLog, retired...)
	c.commit(int32(k), newRound)
	return c.dying, nil
}

// commit makes the union the votes just built in the spare buffer the
// committed dying union, of barrier (k, round), and fires OnBarrier.
func (c *coordinator) commit(k, round int32) {
	c.dying, c.spareDying = c.spareDying, c.dying
	c.barK, c.barRound = k, round
	c.fireBarrierHook()
}

func (c *coordinator) fireBarrierHook() {
	if c.opts.OnBarrier == nil {
		return
	}
	c.opts.OnBarrier(c.barK, c.barRound, func(worker int) {
		if worker >= 0 && worker < len(c.workers) {
			if rw := c.workers[worker]; rw.alive() && rw.conn != nil {
				_ = rw.conn.Close()
			}
		}
	})
}

// recoverPool is the worker-death recovery: bump the epoch so stale
// replies are discarded, and assign the pool anew, which deals the dead
// workers' shards to the survivors and restores every survivor at the
// last committed barrier.
func (c *coordinator) recoverPool() error {
	c.recoveries++
	if c.recoveries > c.opts.MaxRecoveries {
		return fmt.Errorf("%w: recovery budget (%d) exhausted", ErrPoolFailed, c.opts.MaxRecoveries)
	}
	if err := failpoint.Inject(fpReassign); err != nil {
		return fmt.Errorf("%w: reassign: %w", ErrPoolFailed, err)
	}
	c.epoch++
	return c.assign()
}

// teardown shuts the pool down: best-effort Shutdown frames, severed
// connections, closed listener, and a bounded wait for every reader
// goroutine, in-process worker, and worker process.
func (c *coordinator) teardown() {
	if c.timer != nil {
		c.timer.Stop()
	}
	shutdown := newEnc(c.out).b
	//hyperplexvet:ignore budgettick bounded teardown sweep over the worker table; shutdown must proceed under a cancelled ctx
	for _, rw := range c.workers {
		if rw == nil {
			continue
		}
		if rw.alive() && rw.conn != nil {
			// The Shutdown frame is best-effort; even an injected send
			// panic must not abort the rest of the teardown.
			func() {
				defer func() { _ = recover() }()
				_ = writeFrame(rw.conn, mShutdown, shutdown)
			}()
		}
		if rw.conn != nil {
			_ = rw.conn.Close()
		}
	}
	//hyperplexvet:ignore budgettick bounded teardown sweep: one non-blocking Close per accepted connection
	for _, conn := range c.accepted {
		_ = conn.Close()
	}
	if c.ln != nil {
		_ = c.ln.Close()
	}
	close(c.done)
	c.wg.Wait()
	//hyperplexvet:ignore budgettick bounded teardown sweep: per-process wait is capped by the 3s kill watchdog
	for _, rw := range c.workers {
		if rw == nil || rw.cmd == nil {
			continue
		}
		cmd := rw.cmd
		watchdog := time.AfterFunc(3*time.Second, func() {
			if cmd.Process != nil {
				_ = cmd.Process.Kill()
			}
		})
		_ = cmd.Wait()
		watchdog.Stop()
	}
}
