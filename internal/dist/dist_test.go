package dist

import (
	"context"
	"errors"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"hyperplex/internal/check"
	"hyperplex/internal/core"
	"hyperplex/internal/dataset"
	"hyperplex/internal/failpoint"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/run"
)

// fastOpts keeps the protocol timers tight so death detection and
// phase deadlines resolve in test time.
func fastOpts() Options {
	return Options{
		Workers:           3,
		Shards:            5,
		HeartbeatInterval: 15 * time.Millisecond,
		PhaseTimeout:      5 * time.Second,
	}
}

// assertExact asserts the distributed result equals the paper's
// overlap peel on vertex coreness and MaxK (the paper-facing
// quantities), and equals the sharded engine and the sequential CSR
// peeler byte for byte: all three run the same rounds, so they agree on
// hyperedge coreness too.
func assertExact(t *testing.T, h *hypergraph.Hypergraph, got *core.Decomposition, label string) {
	t.Helper()
	want := check.OverlapDecompose(h)
	if got.MaxK != want.MaxK {
		t.Fatalf("%s: MaxK = %d, want %d", label, got.MaxK, want.MaxK)
	}
	for v, c := range want.VertexCoreness {
		if got.VertexCoreness[v] != c {
			t.Fatalf("%s: vertex %d coreness = %d, want %d", label, v, got.VertexCoreness[v], c)
		}
	}
	for _, r := range []struct {
		name string
		ref  *core.Decomposition
	}{
		{"sharded", core.ShardedDecompose(h, core.ShardedOptions{Shards: 3})},
		{"CSR", core.Decompose(h)},
	} {
		name, ref := r.name, r.ref
		if ref.MaxK != got.MaxK || !slices.Equal(ref.VertexCoreness, got.VertexCoreness) {
			t.Fatalf("%s: vertex coreness or MaxK differs from the %s engine", label, name)
		}
		for f, c := range ref.EdgeCoreness {
			if got.EdgeCoreness[f] != c {
				t.Fatalf("%s: hyperedge %d coreness = %d, %s engine has %d", label, f, got.EdgeCoreness[f], name, c)
			}
		}
	}
}

// leakChecked wraps a test body with a goroutine-leak assertion: the
// coordinator must tear down every reader, worker and heartbeat
// goroutine it started, on success and on failure alike.
func leakChecked(t *testing.T, body func(t *testing.T)) {
	t.Helper()
	before := check.GoroutineSnapshot()
	body(t)
	if err := check.CheckNoLeaks(before, 2*time.Second); err != nil {
		t.Fatalf("goroutine leak: %v", err)
	}
}

// TestDifferentialDistDecompose is the acceptance differential: the
// coordinator + worker pool produces vertex coreness and MaxK exactly
// equal to sequential Decompose on the sweep instances and Cellzome —
// on the healthy path, under a chaos kill mid-round, and through the
// local fallback after an unrecoverable pool.
func TestDifferentialDistDecompose(t *testing.T) {
	instances := check.Instances(8, 0xD157)
	cz := dataset.Cellzome().H

	t.Run("healthy", func(t *testing.T) {
		leakChecked(t, func(t *testing.T) {
			for i, h := range instances {
				d, err := Decompose(h, fastOpts())
				if err != nil {
					t.Fatalf("instance %d: %v", i, err)
				}
				assertExact(t, h, d, "healthy sweep")
			}
			d, err := Decompose(cz, fastOpts())
			if err != nil {
				t.Fatal(err)
			}
			assertExact(t, cz, d, "healthy cellzome")
		})
	})

	t.Run("chaos kill mid-round", func(t *testing.T) {
		leakChecked(t, func(t *testing.T) {
			for i, h := range append(instances[:4:4], cz) {
				killed := false
				opts := fastOpts()
				// Sever worker 1's connection at the first committed
				// barrier; the coordinator must detect the death,
				// reassign its shards, replay, and still be exact.
				opts.OnBarrier = func(k, round int32, kill func(worker int)) {
					if !killed {
						killed = true
						kill(1)
					}
				}
				d, err := Decompose(h, opts)
				if err != nil {
					t.Fatalf("instance %d: %v", i, err)
				}
				if !killed {
					t.Fatalf("instance %d: no barrier fired", i)
				}
				assertExact(t, h, d, "killed run")
			}
		})
	})

	t.Run("repeated kills", func(t *testing.T) {
		leakChecked(t, func(t *testing.T) {
			h := instances[len(instances)-1]
			kills := 0
			opts := fastOpts()
			opts.Workers, opts.Shards = 3, 6
			opts.MaxRecoveries = 5
			opts.OnBarrier = func(k, round int32, kill func(worker int)) {
				// Kill workers 1 then 2 at successive barriers,
				// funneling every shard onto worker 0.
				if kills < 2 {
					kills++
					kill(kills)
				}
			}
			d, err := Decompose(h, opts)
			if err != nil {
				t.Fatal(err)
			}
			if kills == 0 {
				t.Fatal("no barrier fired")
			}
			assertExact(t, h, d, "twice-killed run")
		})
	})

	t.Run("local fallback", func(t *testing.T) {
		leakChecked(t, func(t *testing.T) {
			if err := failpoint.Enable("dist.reassign", failpoint.Arm{Mode: failpoint.ModeError}); err != nil {
				t.Fatal(err)
			}
			defer failpoint.Disable("dist.reassign")
			h := instances[len(instances)-1]
			opts := fastOpts()
			opts.OnBarrier = func(k, round int32, kill func(worker int)) { kill(1) }

			// Without the fallback the poisoned recovery is a pool
			// failure with the injected cause in the chain.
			_, err := Decompose(h, opts)
			if !errors.Is(err, ErrPoolFailed) || !errors.Is(err, failpoint.ErrInjected) {
				t.Fatalf("err = %v, want ErrPoolFailed wrapping ErrInjected", err)
			}

			// With it, the run degrades onto the in-process engine and
			// stays exact.
			opts.LocalFallback = true
			d, err := Decompose(h, opts)
			if err != nil {
				t.Fatal(err)
			}
			if failpoint.Fired("dist.reassign") == 0 {
				t.Fatal("reassign failpoint never fired")
			}
			assertExact(t, h, d, "fallback run")
		})
	})
}

// TestDistHeartbeatDeath kills a worker through the dist.heartbeat
// panic arm — the injected panic is recovered in the worker, its
// connection severed, and the coordinator recovers the run.
func TestDistHeartbeatDeath(t *testing.T) {
	leakChecked(t, func(t *testing.T) {
		if err := failpoint.Enable("dist.heartbeat", failpoint.Arm{Mode: failpoint.ModePanic, After: 2, Times: 1}); err != nil {
			t.Fatal(err)
		}
		defer failpoint.Disable("dist.heartbeat")
		h := dataset.Cellzome().H
		opts := fastOpts()
		opts.HeartbeatInterval = 5 * time.Millisecond
		d, err := Decompose(h, opts)
		if err != nil {
			t.Fatal(err)
		}
		if failpoint.Fired("dist.heartbeat") == 0 {
			t.Fatal("heartbeat failpoint never fired")
		}
		assertExact(t, h, d, "heartbeat-death run")
	})
}

// TestDistSendFaultsRetried pins retry-with-backoff: transient
// injected send failures (every 7th send, three at most per site hit)
// are absorbed without any worker death.
func TestDistSendFaultsRetried(t *testing.T) {
	leakChecked(t, func(t *testing.T) {
		if err := failpoint.Enable("dist.send", failpoint.Arm{Mode: failpoint.ModeError, Every: 7}); err != nil {
			t.Fatal(err)
		}
		defer failpoint.Disable("dist.send")
		h := check.Instances(6, 1)[5]
		d, err := Decompose(h, fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		if failpoint.Fired("dist.send") == 0 {
			t.Fatal("send failpoint never fired")
		}
		assertExact(t, h, d, "retried-send run")
	})
}

// TestDistHeartbeatMissDetection unit-tests the silent-worker path:
// a worker whose frames never arrive and whose last beat is stale is
// declared dead within the miss window, well before the phase
// deadline.
func TestDistHeartbeatMissDetection(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	c := &coordinator{
		ctx:  context.Background(),
		opts: Options{HeartbeatInterval: 10 * time.Millisecond, PhaseTimeout: 10 * time.Second}.normalized(dataset.Cellzome().H),
	}
	rw := &remoteWorker{id: 0, conn: a, frames: make(chan frameMsg)}
	rw.lastBeat.Store(time.Now().Add(-time.Second).UnixNano())
	start := time.Now()
	_, err := c.await(rw, mFrontier)
	if !errors.Is(err, errWorkerLost) {
		t.Fatalf("err = %v, want errWorkerLost", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("miss detection took %v, want well under the phase deadline", elapsed)
	}
	if !rw.dead {
		t.Fatal("silent worker not marked dead")
	}
}

// TestDistNoWorkers pins pool-collapse at the join phase: a worker
// command that never connects is a pool failure, or a silent local
// degrade with the fallback.
func TestDistNoWorkers(t *testing.T) {
	leakChecked(t, func(t *testing.T) {
		h := check.Instances(3, 2)[2]
		opts := fastOpts()
		opts.WorkerCommand = []string{"/bin/false"}
		opts.PhaseTimeout = 300 * time.Millisecond
		_, err := Decompose(h, opts)
		if !errors.Is(err, ErrPoolFailed) {
			t.Fatalf("err = %v, want ErrPoolFailed", err)
		}
		opts.LocalFallback = true
		d, err := Decompose(h, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertExact(t, h, d, "fallback-from-join run")
	})
}

// TestDistUnspawnablePool pins pool-collapse one phase earlier: a
// worker binary that cannot even start is a pool failure too, so
// LocalFallback covers a missing or broken hgshardd path.
func TestDistUnspawnablePool(t *testing.T) {
	leakChecked(t, func(t *testing.T) {
		h := check.Instances(3, 2)[2]
		opts := fastOpts()
		opts.WorkerCommand = []string{"/nonexistent/hgshardd"}
		_, err := Decompose(h, opts)
		if !errors.Is(err, ErrPoolFailed) {
			t.Fatalf("err = %v, want ErrPoolFailed", err)
		}
		opts.LocalFallback = true
		d, err := Decompose(h, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertExact(t, h, d, "fallback-from-spawn run")
	})
}

// TestDistContextAndBudget pins that cancellation and budget errors
// surface as themselves and are never masked by the local fallback.
func TestDistContextAndBudget(t *testing.T) {
	leakChecked(t, func(t *testing.T) {
		h := check.Instances(3, 3)[2]
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		opts := fastOpts()
		opts.LocalFallback = true
		if _, err := DecomposeCtx(ctx, h, opts); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled ctx: err = %v, want context.Canceled", err)
		}
		bctx, _ := run.WithBudget(context.Background(), run.Budget{MaxSteps: 1})
		if _, err := DecomposeCtx(bctx, h, opts); !errors.Is(err, run.ErrBudgetExceeded) {
			t.Fatalf("budget: err = %v, want ErrBudgetExceeded", err)
		}
	})
}

// TestDistProcessSmoke runs the real multi-process path: hgshardd is
// built from source, two worker processes join over localhost, and one
// is killed mid-run.  Gated behind HYPERPLEX_DIST_SMOKE=1 (the CI
// distributed-smoke job sets it) to keep default test runs hermetic.
func TestDistProcessSmoke(t *testing.T) {
	if os.Getenv("HYPERPLEX_DIST_SMOKE") != "1" {
		t.Skip("set HYPERPLEX_DIST_SMOKE=1 to run the multi-process smoke test")
	}
	bin := filepath.Join(t.TempDir(), "hgshardd")
	build := exec.Command("go", "build", "-o", bin, "hyperplex/cmd/hgshardd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build hgshardd: %v\n%s", err, out)
	}
	h := dataset.Cellzome().H
	killed := false
	opts := fastOpts()
	opts.Workers = 2
	// OS-process workers on a loaded CI runner can miss fastOpts's
	// 15ms beat cadence; keep the 4-beat death window at 100ms.
	opts.HeartbeatInterval = 25 * time.Millisecond
	opts.WorkerCommand = []string{bin}
	opts.WorkerStderr = os.Stderr
	opts.OnBarrier = func(k, round int32, kill func(worker int)) {
		if !killed && round >= 1 {
			killed = true
			kill(1)
		}
	}
	d, err := Decompose(h, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !killed {
		t.Fatal("run finished before the scripted kill")
	}
	assertExact(t, h, d, "process smoke")
}
