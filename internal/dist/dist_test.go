package dist

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
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
// quantities), and equals the in-process sharded engine and the round
// oracle (check.RoundDecompose) byte for byte: all three run the same
// rounds, so they agree on hyperedge coreness too.
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
		{"sharded engine", core.ShardedDecompose(h, core.ShardedOptions{Shards: 3})},
		{"round oracle", check.RoundDecompose(h, 1)},
	} {
		name, ref := r.name, r.ref
		if ref.MaxK != got.MaxK || !slices.Equal(ref.VertexCoreness, got.VertexCoreness) {
			t.Fatalf("%s: vertex coreness or MaxK differs from the %s", label, name)
		}
		for f, c := range ref.EdgeCoreness {
			if got.EdgeCoreness[f] != c {
				t.Fatalf("%s: hyperedge %d coreness = %d, the %s has %d", label, f, got.EdgeCoreness[f], name, c)
			}
		}
	}
}

// leakChecked wraps a test body with a goroutine-leak assertion: the
// coordinator must tear down every in-process worker and heartbeat
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
// on the healthy path, under a chaos kill at the first, a late or
// every barrier in turn, and through the local fallback after an
// unrecoverable pool.
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

	t.Run("chaos kill at a late barrier", func(t *testing.T) {
		leakChecked(t, func(t *testing.T) {
			// At barrier 12 (of Cellzome's 17) the survivors rebuild
			// their replicas from logs of eleven committed rounds.
			const at = 12
			barriers, killed := 0, false
			opts := fastOpts()
			opts.OnBarrier = func(k, round int32, kill func(worker int)) {
				barriers++
				if barriers == at {
					killed = true
					kill(1)
				}
			}
			d, err := Decompose(cz, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !killed {
				t.Fatalf("only %d barriers fired, want a kill at barrier %d", barriers, at)
			}
			assertExact(t, cz, d, "late-killed run")
		})
	})

	t.Run("chaos kill at every barrier", func(t *testing.T) {
		leakChecked(t, func(t *testing.T) {
			// Worker 2 owns one of the five shards, which goes to worker
			// 0, so worker 1 takes no shard and must still restore the
			// replica it moved past the barrier.  A kill at each barrier
			// in turn restores from every prefix of the logs.
			for i, h := range append(instances[:4:4], cz) {
				for at := 1; ; at++ {
					barriers, killed := 0, false
					opts := fastOpts()
					opts.OnBarrier = func(k, round int32, kill func(worker int)) {
						barriers++
						if barriers == at {
							killed = true
							kill(2)
						}
					}
					d, err := Decompose(h, opts)
					if err != nil {
						t.Fatalf("instance %d, kill at barrier %d: %v", i, at, err)
					}
					if !killed {
						break
					}
					assertExact(t, h, d, fmt.Sprintf("instance %d killed at barrier %d", i, at))
				}
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

// TestDifferentialSchedule pins that the in-process driver and the
// coordinator run one round schedule, over the sweep instances,
// Cellzome and the banded 8000×8000 instance at 1–3 workers and 2–5
// shards.  ShardedDecomposeCtx passes csr.peel once per Shrink call and
// core.sharded.exchange before every Apply and every Shrink; the
// distributed run must commit one barrier per Shrink after barrier
// (0, 0), pass the exchange site as often, and return the same
// decomposition.
func TestDifferentialSchedule(t *testing.T) {
	defer failpoint.DisableAll()
	// hits runs decompose with both sites counting and returns its
	// result and the hits of each.
	hits := func(decompose func() (*core.Decomposition, error)) (d *core.Decomposition, shrinks, exchanges int) {
		t.Helper()
		for _, site := range []string{"csr.peel", "core.sharded.exchange"} {
			if err := failpoint.Enable(site, failpoint.Arm{Mode: failpoint.ModeDelay}); err != nil {
				t.Fatal(err)
			}
		}
		d, err := decompose()
		if err != nil {
			t.Fatal(err)
		}
		return d, failpoint.Fired("csr.peel"), failpoint.Fired("core.sharded.exchange")
	}
	_, banded := bandedLoad(t)
	leakChecked(t, func(t *testing.T) {
		for i, h := range append(check.Instances(10, 0x5C4E), dataset.Cellzome().H, banded) {
			for _, cfg := range [][2]int{{1, 2}, {2, 3}, {3, 4}, {2, 5}} {
				local, shrinks, localEx := hits(func() (*core.Decomposition, error) {
					return core.ShardedDecomposeCtx(context.Background(), h, core.ShardedOptions{Shards: cfg[1]})
				})
				// A slow beat: a worker declared dead would replay
				// rounds and commit extra barriers.
				barriers := 0
				opts := Options{Workers: cfg[0], Shards: cfg[1], HeartbeatInterval: time.Second}
				opts.OnBarrier = func(int32, int32, func(int)) { barriers++ }
				d, _, distEx := hits(func() (*core.Decomposition, error) { return Decompose(h, opts) })
				if shrinks != barriers-1 || localEx != distEx || local.MaxK != d.MaxK {
					t.Fatalf("instance %d, %d workers, %d shards: in process %d Shrink calls, %d exchanges, MaxK %d; distributed %d barriers after (0, 0), %d exchanges, MaxK %d",
						i, cfg[0], cfg[1], shrinks, localEx, local.MaxK, barriers-1, distEx, d.MaxK)
				}
				if !slices.Equal(local.VertexCoreness, d.VertexCoreness) || !slices.Equal(local.EdgeCoreness, d.EdgeCoreness) {
					t.Fatalf("instance %d, %d workers, %d shards: the distributed decomposition differs from ShardedDecomposeCtx's", i, cfg[0], cfg[1])
				}
			}
		}
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
		// Hold the coordinator at its first barrier until a heartbeat
		// has panicked: the whole run can be shorter than three beats.
		opts.OnBarrier = func(k, round int32, kill func(worker int)) {
			deadline := time.Now().Add(5 * time.Second)
			for failpoint.Fired("dist.heartbeat") == 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
		}
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

// TestDistSendFaultsRetried pins that a failed send is a worker death
// like any other: two injected send failures (the 7th and the 14th
// send, by either end) each cost at most the worker the frame was for
// or from, or a heartbeat, and the coordinator recovers the run from
// the last committed barrier, so the round is retried over the
// survivors and the result is exact.
func TestDistSendFaultsRetried(t *testing.T) {
	leakChecked(t, func(t *testing.T) {
		if err := failpoint.Enable("dist.send", failpoint.Arm{Mode: failpoint.ModeError, Every: 7, Times: 2}); err != nil {
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

// TestAwaitRecvPanicCostsOneWorker arms an injected dist.recv panic
// once, at the first committed barrier, so a later frame read panics:
// the coordinator's read of a worker's frame, or a worker's read of
// the coordinator's.  Either end recovers it as the death of that one
// worker, so the run commits one barrier more than a healthy run, the
// recovery's, and is exact without the local fallback.  The arm skips
// 0 to 3 reads, so the panic lands on either end across the runs.
func TestAwaitRecvPanicCostsOneWorker(t *testing.T) {
	defer failpoint.Disable("dist.recv")
	leakChecked(t, func(t *testing.T) {
		h := dataset.Cellzome().H
		// A slow beat: a worker declared dead would commit extra barriers.
		opts := Options{Workers: 3, Shards: 5, HeartbeatInterval: time.Second}
		healthy := 0
		opts.OnBarrier = func(int32, int32, func(int)) { healthy++ }
		if _, err := Decompose(h, opts); err != nil {
			t.Fatal(err)
		}
		for after := 0; after < 4; after++ {
			barriers := 0
			opts.OnBarrier = func(int32, int32, func(int)) {
				if barriers++; barriers == 1 {
					if err := failpoint.Enable("dist.recv", failpoint.Arm{Mode: failpoint.ModePanic, After: after, Times: 1}); err != nil {
						t.Error(err)
					}
				}
			}
			d, err := Decompose(h, opts)
			failpoint.Disable("dist.recv")
			if err != nil {
				t.Fatalf("panic after %d reads: %v", after, err)
			}
			if fired := failpoint.Fired("dist.recv"); fired != 1 {
				t.Fatalf("panic after %d reads: the arm fired %d times, want 1", after, fired)
			}
			if barriers != healthy+1 {
				t.Fatalf("panic after %d reads: %d barriers committed, want the healthy run's %d and one recovery's", after, barriers, healthy)
			}
			assertExact(t, h, d, fmt.Sprintf("panic after %d reads", after))
		}
	})
}

// TestDistHeartbeatMissDetection unit-tests the silent-worker path
// over a net.Pipe: a worker that beats three times, faster than its
// interval, and then falls silent is kept alive by each beat the
// coordinator reads, and is declared dead one miss window after the
// last of them, well before the phase deadline.
func TestDistHeartbeatMissDetection(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	const beat, gap = 50 * time.Millisecond, 10 * time.Millisecond
	c := &coordinator{
		ctx:  context.Background(),
		opts: Options{HeartbeatInterval: beat, PhaseTimeout: 10 * time.Second}.normalized(dataset.Cellzome().H),
	}
	rw := &remoteWorker{id: 0, conn: a, rd: bufio.NewReader(a)}
	heartbeat := frameBytes(t, mHeartbeat, nil)
	start := time.Now()
	go func() {
		for i := 0; i < 3; i++ {
			time.Sleep(gap)
			if _, err := b.Write(heartbeat); err != nil {
				return
			}
		}
	}()
	_, err := c.await(rw, mFrontier)
	if !errors.Is(err, errWorkerLost) {
		t.Fatalf("err = %v, want errWorkerLost", err)
	}
	// The last beat is read no earlier than 3 gaps in, and restarts the
	// 4-beat miss window.
	if elapsed, least := time.Since(start), 3*gap+4*beat; elapsed < least || elapsed > 2*time.Second {
		t.Fatalf("miss detection took %v, want between %v and well under the phase deadline", elapsed, least)
	}
	if !rw.dead {
		t.Fatal("silent worker not marked dead")
	}
}

// TestOptionsShardPolicy pins that the pool's partition width follows
// the shard-count policy of core.ShardedOptions: a request for 100,000
// shards over 200,000 vertices is capped at 512, the width the local
// fallback's in-process run takes too.
func TestOptionsShardPolicy(t *testing.T) {
	h, err := hypergraph.FromEdgeSets(200000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := (Options{Shards: 100000}).normalized(h).Shards; got != 512 {
		t.Errorf("Options{Shards: 100000} over %d vertices normalizes to %d shards, want 512", h.NumVertices(), got)
	}
}

// TestDistNoWorkers pins pool-collapse at the join phase: a worker
// command that never connects is a pool failure, whose text names the
// package once, or a silent local degrade with the fallback.
func TestDistNoWorkers(t *testing.T) {
	leakChecked(t, func(t *testing.T) {
		h := check.Instances(3, 2)[2]
		opts := fastOpts()
		opts.WorkerCommand = []string{"/bin/false"}
		opts.PhaseTimeout = 300 * time.Millisecond
		_, err := Decompose(h, opts)
		if !errors.Is(err, ErrPoolFailed) || strings.Count(err.Error(), "dist:") != 1 {
			t.Fatalf("err = %v, want ErrPoolFailed, with dist: named once", err)
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
