package dist

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os/exec"
	"strconv"
	"sync"
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

// remoteWorker is the coordinator's handle on one worker: its
// connection, the connection's one buffered reader, and the buffer
// every frame from it is read into, reused for the next.
type remoteWorker struct {
	id   int
	conn net.Conn
	rd   *bufio.Reader
	in   []byte
	dead bool
	cmd  *exec.Cmd // non-nil when spawned as an OS process
}

func (rw *remoteWorker) alive() bool { return rw != nil && !rw.dead }

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

	// accepted holds the listener and every connection it accepted,
	// which teardown and a cancellation close.  setup adds to it while
	// a cancellation may be closing it, so mu guards it, and closed
	// records that closeAccepted ran.
	mu       sync.Mutex
	accepted []io.Closer
	closed   bool

	workers []*remoteWorker
	wg      sync.WaitGroup // in-process workers

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
	// votes; retired gathers the round's retired delta off the votes.
	out     []byte
	vote    msgRound
	retired []int32

	// seen[id] == gen marks a vertex or hyperedge ID the vote under
	// check has named, so a repeat is caught (newGen); it is sized for
	// both sides and cleared only on the int32 wraparound.
	seen []int32
	gen  int32

	recoveries int
}

func runCoordinator(ctx context.Context, meter *run.Meter, h *hypergraph.Hypergraph, opts Options) (*core.Decomposition, error) {
	// accepted has room for the listener and every worker's connection.
	c := &coordinator{ctx: ctx, meter: meter, opts: opts, h: h, accepted: make([]io.Closer, 0, opts.Workers+1)}
	defer c.teardown()
	// A cancellation closes the listener and every accepted connection,
	// which ends an Accept, read or write blocked on one at once, in the
	// join as in the rounds.
	stop := context.AfterFunc(ctx, c.closeAccepted)
	defer stop()
	if err := c.setup(); err != nil {
		return nil, err
	}
	return c.peel()
}

// peel ships Load to the joined pool, deals the shards and runs the
// rounds to the decomposition.
func (c *coordinator) peel() (*core.Decomposition, error) {
	if err := c.load(); err != nil {
		return nil, err
	}
	if err := c.assign(); err != nil {
		if _, _, err := c.Resume(err); err != nil {
			return nil, err
		}
	}
	return core.RunRounds(c.ctx, c, c.h, c.dying, math.MaxInt)
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

// setup builds the partition, starts the listener, spawns the pool
// and joins it.
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
		return fmt.Errorf("listen: %w", err)
	}
	c.track(ln)
	tl, ok := ln.(*net.TCPListener)
	if !ok {
		return fmt.Errorf("listener is %T, want *net.TCPListener", ln)
	}
	addr := ln.Addr().String()
	for i := 0; i < c.opts.Workers; i++ {
		if err := c.ctx.Err(); err != nil {
			return err
		}
		if err := c.spawn(i, addr); err != nil {
			return err
		}
	}
	return c.join(tl)
}

// load ships Load, the shard count and the hypergraph's rows, to every
// joined worker.
func (c *coordinator) load() error {
	g := c.h.CSR()
	load := msgLoad{Shards: csr.MustInt32(c.part.NumShards()), NumV: csr.MustInt32(c.h.NumVertices()), EOff: g.EOff, EAdj: g.EAdj}
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

// join accepts pool connections on tl and their Hello handshakes until
// every spawned worker connected or the phase deadline passes; a
// partial pool proceeds, an empty one is a pool failure, and a
// cancellation, which closes tl and the connections, ends the join
// with the context's error.  Each connection is
// paired with the worker slot its Hello names — never with the accept
// order, which under concurrent dials matches the spawn order only by
// luck, and a mispairing would aim every kill (and its Process.Kill)
// at the wrong process.
func (c *coordinator) join(tl *net.TCPListener) error {
	deadline := time.Now().Add(c.opts.PhaseTimeout)
	if err := tl.SetDeadline(deadline); err != nil {
		return fmt.Errorf("listener deadline: %w", err)
	}
	joined := 0
	for range c.workers {
		if c.ctx.Err() != nil {
			return c.ctx.Err()
		}
		conn, err := tl.Accept()
		if err != nil {
			if cerr := c.ctx.Err(); cerr != nil {
				return cerr
			}
			break // deadline passed; proceed with the joined pool
		}
		// Track the conn before the handshake: if an injected fault
		// panics out of hello, teardown still severs it, so the worker
		// behind it cannot be left blocked on a read.
		c.track(conn)
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
		rw.conn, rw.rd = conn, rd
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

func (c *coordinator) aliveWorkers() []*remoteWorker {
	var out []*remoteWorker
	for _, rw := range c.workers {
		if rw.alive() {
			out = append(out, rw)
		}
	}
	return out
}

// kill marks a worker dead and severs its connection; a worker process
// is killed here and waited for at teardown.
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

// await reads rw's frames up to the next one that is not a heartbeat,
// which must be of type want, and returns its payload, which the next
// read from rw overwrites.  A failed read (a closed connection, a
// corrupt frame, a missed-heartbeat window or the phase deadline) or a
// frame of any other type kills the worker and reports errWorkerLost;
// a cancelled context surfaces as-is.
//
//hyperplexvet:wirerecv
func (c *coordinator) await(rw *remoteWorker, want byte) ([]byte, error) {
	deadline := time.Now().Add(c.opts.PhaseTimeout)
	for {
		typ, payload, err := c.read(rw, deadline)
		if err != nil {
			if cerr := c.ctx.Err(); cerr != nil {
				return nil, cerr
			}
			c.kill(rw)
			return nil, fmt.Errorf("%w: worker %d: %w", errWorkerLost, rw.id, err)
		}
		if typ == mHeartbeat {
			continue
		}
		if typ != want {
			c.kill(rw)
			return nil, fmt.Errorf("%w: worker %d sent frame type %d, want %d", errWorkerLost, rw.id, typ, want)
		}
		return payload, nil
	}
}

// read reads rw's next frame into rw.in.  The read must end by the
// phase deadline and within 4 heartbeat intervals, so any frame counts
// as a beat and a silent worker is caught one window after its last
// one.  A panic (an injected recv fault) is returned as an error: it
// costs the worker, not the run.
func (c *coordinator) read(rw *remoteWorker, deadline time.Time) (typ byte, payload []byte, err error) {
	defer func() {
		if x := recover(); x != nil {
			err = fmt.Errorf("dist: recv panicked: %v", x)
		}
	}()
	if miss := time.Now().Add(4 * c.opts.HeartbeatInterval); miss.Before(deadline) {
		deadline = miss
	}
	if err := rw.conn.SetReadDeadline(deadline); err != nil {
		return 0, nil, fmt.Errorf("dist: recv: %w", err)
	}
	typ, payload, err = readFrame(rw.rd, maxFramePayload, rw.in)
	if err == nil {
		rw.in = payload
	}
	return typ, payload, err
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
	var lost error
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
		m := msgAssign{K: c.barK, Round: c.barRound, Shards: shards, Dead: c.deadLog, Retired: c.retiredLog}
		c.out = m.encode(c.out)
		if err := writeFrame(rw.conn, mAssign, c.out); err != nil {
			c.kill(rw)
			lost = errWorkerLost
		}
	}
	if err := c.gather(lost, mBarrier, c.barK, c.barRound); err != nil {
		return err
	}
	c.commit(c.barK, c.barRound)
	return nil
}

// gather awaits every live worker's vote of type want, Frontier or
// Barrier, for round (k, round) and collects the IDs the votes name:
// the retired vertices in retired, the dying hyperedges in spareDying.
// lost is the error of the sends that asked for the votes.  A lost
// worker, there or at its vote, does not end the sweep: every
// survivor's vote is read before the loss is reported.  A survivor
// whose vote were left unread, and outgrew the socket buffers, would
// block in that send and never read the recovery's Assign, whose write
// would block the coordinator in turn.  Any other error returns at
// once.
func (c *coordinator) gather(lost error, want byte, k, round int32) error {
	if lost != nil && !errors.Is(lost, errWorkerLost) {
		return lost
	}
	ids, owner, what := &c.retired, c.part.VertexOwner, "retired vertex"
	if want == mBarrier {
		ids, owner, what = &c.spareDying, c.part.EdgeOwner, "dying hyperedge"
	}
	*ids = (*ids)[:0]
	for _, rw := range c.workers {
		if rw.alive() {
			err := c.awaitVote(rw, want, k, round, owner, what)
			switch {
			case err == nil:
				*ids = append(*ids, c.vote.IDs...)
			case errors.Is(err, errWorkerLost):
				lost = err
			default:
				return err
			}
		}
	}
	return lost
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

// awaitDecode awaits rw's next frame of type want and decodes it into
// m; a frame that does not decode kills the worker.
func (c *coordinator) awaitDecode(rw *remoteWorker, want byte, m interface{ decode([]byte) error }) error {
	payload, err := c.await(rw, want)
	if err != nil {
		return err
	}
	if err := m.decode(payload); err != nil {
		c.kill(rw)
		return fmt.Errorf("%w: worker %d: %w", errWorkerLost, rw.id, err)
	}
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
	apply := msgRound{K: int32(k), Round: c.barRound, IDs: dying}
	c.out = apply.encode(c.out)
	if err := c.gather(c.broadcast(mApply, c.out), mFrontier, int32(k), c.barRound); err != nil {
		return nil, err
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
	shrink := msgRound{K: int32(k), Round: newRound, IDs: retired}
	c.out = shrink.encode(c.out)
	if err := c.gather(c.broadcast(mShrink, c.out), mBarrier, int32(k), newRound); err != nil {
		return nil, err
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

// recoverPool is the worker-death recovery: assign the pool anew,
// which deals the dead workers' shards to the survivors and restores
// every survivor at the last committed barrier.  No survivor has a
// reply outstanding then, since gather read every survivor's vote
// before it reported the loss.
func (c *coordinator) recoverPool() error {
	// A cancellation closes every connection, so the deaths it causes
	// are the cancellation, not worth a recovery.
	if err := c.ctx.Err(); err != nil {
		return err
	}
	c.recoveries++
	if c.recoveries > c.opts.MaxRecoveries {
		return fmt.Errorf("%w: recovery budget (%d) exhausted", ErrPoolFailed, c.opts.MaxRecoveries)
	}
	if err := failpoint.Inject(fpReassign); err != nil {
		return fmt.Errorf("%w: reassign: %w", ErrPoolFailed, err)
	}
	return c.assign()
}

// teardown shuts the pool down: best-effort Shutdown frames, severed
// connections, closed listener, and a bounded wait for every
// in-process worker and worker process.
func (c *coordinator) teardown() {
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
	c.closeAccepted()
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

// track adds cl, the listener or an accepted connection, to what
// closeAccepted closes, or closes it at once when closeAccepted has
// already run.
func (c *coordinator) track(cl io.Closer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		_ = cl.Close()
		return
	}
	c.accepted = append(c.accepted, cl)
}

// closeAccepted closes the listener and every accepted connection,
// which ends any Accept or read blocked on one at once: at teardown,
// and when ctx is cancelled.
func (c *coordinator) closeAccepted() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	//hyperplexvet:ignore budgettick bounded teardown sweep: one non-blocking Close per accepted connection
	for _, cl := range c.accepted {
		_ = cl.Close()
	}
}
