package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"hyperplex/internal/core"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/partition"
	"hyperplex/internal/run"
)

// DefaultHeartbeatInterval is the worker beacon period when none is
// set: Options.HeartbeatInterval, WorkerOptions.HeartbeatInterval and
// hgshardd's -heartbeat flag.
const DefaultHeartbeatInterval = 100 * time.Millisecond

// Options configures a distributed decomposition.
type Options struct {
	// Workers is the worker pool size.  ≤ 0 selects 2.  The pool is
	// capped at the shard count: a worker holds a full replica, so
	// shardless workers only add memory.
	Workers int
	// Shards is the partition width, under the shard-count policy
	// core.ShardedOptions follows too, partition.NormalizeShards (≤ 0 →
	// NumCPU, clamped to the vertex count and to 512), so LocalFallback
	// runs the width the pool did.
	Shards int
	// WorkerCommand, when non-empty, is the argv prefix used to spawn
	// each worker as an OS process (typically {"hgshardd"}); the
	// coordinator appends -connect/-heartbeat flags.  When empty,
	// workers run as in-process goroutines dialing the same TCP
	// loopback listener — the full wire path without process spawning.
	WorkerCommand []string
	// LocalFallback collapses an unrecoverable worker pool onto the
	// in-process sharded engine instead of failing.
	LocalFallback bool
	// HeartbeatInterval is the worker beacon period (default
	// DefaultHeartbeatInterval); a worker silent for 4 intervals is
	// declared dead.
	HeartbeatInterval time.Duration
	// PhaseTimeout bounds every protocol phase: worker join, load, and
	// each await of a round reply.  Defaults to 30s.
	PhaseTimeout time.Duration
	// MaxRecoveries bounds worker-death recoveries before the pool is
	// declared failed (default 3).
	MaxRecoveries int
	// Listen is the coordinator's listen address (default
	// "127.0.0.1:0").
	Listen string
	// WorkerStderr receives spawned worker processes' stderr; nil
	// discards it.
	WorkerStderr io.Writer

	// OnBarrier, when set, runs on the coordinator after every
	// committed barrier with the barrier's (k, round) tag and a kill
	// switch that severs a live worker's connection.  It is the
	// deterministic worker-death harness of this package's tests and
	// the chaos suite, and the benchmark's barrier counter; the CLIs
	// leave it nil.
	OnBarrier func(k, round int32, kill func(worker int))
}

func (o Options) normalized(h *hypergraph.Hypergraph) Options {
	o.Shards = partition.NormalizeShards(o.Shards, h.NumVertices())
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.Workers > o.Shards {
		o.Workers = o.Shards
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if o.PhaseTimeout <= 0 {
		o.PhaseTimeout = 30 * time.Second
	}
	if o.MaxRecoveries <= 0 {
		o.MaxRecoveries = 3
	}
	if o.Listen == "" {
		o.Listen = "127.0.0.1:0"
	}
	return o
}

// ErrPoolFailed reports that the worker pool collapsed beyond
// recovery: no workers joined, every worker died, or the recovery
// budget ran out.  With Options.LocalFallback the run degrades to the
// in-process engine instead of surfacing this.
var ErrPoolFailed = errors.New("dist: worker pool failed")

// Decompose runs the distributed core decomposition of h and returns
// a result equal to core.Decompose's byte for byte, edge coreness
// included.
func Decompose(h *hypergraph.Hypergraph, opts Options) (*core.Decomposition, error) {
	return DecomposeCtx(context.Background(), h, opts)
}

// DecomposeCtx is Decompose honoring cancellation, deadline and any
// run.Budget attached to ctx.  Worker deaths are recovered by shard
// reassignment and replay from the last committed barrier; only a
// pool-level collapse fails the run (or, with Options.LocalFallback,
// degrades it to core.ShardedDecomposeCtx).  Context and budget errors
// are never masked by the fallback.
func DecomposeCtx(ctx context.Context, h *hypergraph.Hypergraph, opts Options) (*core.Decomposition, error) {
	meter := run.MeterFrom(ctx)
	if err := run.Tick(ctx, meter, 0); err != nil {
		return nil, err
	}
	opts = opts.normalized(h)
	d, err := runCoordinator(ctx, meter, h, opts)
	if err != nil && opts.LocalFallback && errors.Is(err, ErrPoolFailed) {
		return core.ShardedDecomposeCtx(ctx, h, core.ShardedOptions{Shards: opts.Shards})
	}
	if err != nil {
		if !errors.Is(err, ErrPoolFailed) {
			// A pool failure names the package already.
			err = fmt.Errorf("dist: %w", err)
		}
		return nil, err
	}
	return d, nil
}
