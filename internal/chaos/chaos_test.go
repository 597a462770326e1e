package chaos

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hyperplex/internal/check"
	"hyperplex/internal/core"
	"hyperplex/internal/cover"
	"hyperplex/internal/dataset"
	"hyperplex/internal/dist"
	"hyperplex/internal/failpoint"
	"hyperplex/internal/gen"
	"hyperplex/internal/hypergraph"
	"hyperplex/internal/mmio"
	"hyperplex/internal/pajek"
	"hyperplex/internal/partition"
	"hyperplex/internal/run"
	"hyperplex/internal/stats"
	"hyperplex/internal/store"
	"hyperplex/internal/xrand"
)

// Shared fixtures: a hypergraph large enough that every periodic
// checkpoint is reached, its serialized forms for the reader sites,
// and a saved dataset instance for dataset.load.
var (
	bigH      *hypergraph.Hypergraph
	textData  []byte
	mtxData   []byte
	netData   []byte
	instDir   string
	storePath string
)

func TestMain(m *testing.M) {
	bigH = gen.RandomHypergraph(400, 300, 6, xrand.New(0xC11A05))
	var buf bytes.Buffer
	if err := hypergraph.WriteText(&buf, bigH); err != nil {
		panic(err)
	}
	textData = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := mmio.Write(&buf, mmio.FromHypergraph(bigH)); err != nil {
		panic(err)
	}
	mtxData = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := pajek.WriteNet(&buf, bigH, nil, nil); err != nil {
		panic(err)
	}
	netData = append([]byte(nil), buf.Bytes()...)

	dir, err := os.MkdirTemp("", "chaos-instance-")
	if err != nil {
		panic(err)
	}
	if err := dataset.Cellzome().Save(dir); err != nil {
		panic(err)
	}
	instDir = dir
	storePath = filepath.Join(dir, "big.store")
	if err := store.WriteH(storePath, bigH); err != nil {
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// drivers maps every registered failpoint site to a function that
// exercises it through the public Ctx APIs.  Each driver validates any
// successful result with the independent checkers and returns the
// call's error for the harness to judge.
func drivers() map[string]func(t *testing.T, ctx context.Context) error {
	return map[string]func(t *testing.T, ctx context.Context) error{
		// Both drivers of core.RunRounds pass the site; the coordinator
		// runs first, so the panic arm reaches it with workers live.
		"core.sharded.exchange": func(t *testing.T, ctx context.Context) error {
			return errors.Join(distDriver(t, ctx), shardedDriver(t, ctx), sequentialDriver(t, ctx))
		},
		"csr.build": sequentialDriver,
		"csr.peel":  sequentialDriver,
		"partition.build": func(t *testing.T, ctx context.Context) error {
			p, err := partition.BuildCtx(ctx, bigH, 4)
			if err == nil {
				if p.NumShards() != 4 {
					t.Errorf("successful BuildCtx produced %d shards, want 4", p.NumShards())
				}
				owned := 0
				for _, sh := range p.Shards {
					owned += int(sh.Count)
				}
				if owned != bigH.NumVertices() {
					t.Errorf("successful BuildCtx owns %d of %d vertices", owned, bigH.NumVertices())
				}
			} else if p != nil {
				t.Errorf("BuildCtx returned a partition alongside error %v", err)
			}
			return errors.Join(err, sequentialDriver(t, ctx))
		},
		"cover.greedy.pop": func(t *testing.T, ctx context.Context) error {
			c, err := cover.GreedyMulticoverCtx(ctx, bigH, nil, nil)
			if err == nil {
				if verr := check.ValidCover(bigH, c, nil, nil); verr != nil {
					t.Errorf("successful GreedyMulticoverCtx result invalid: %v", verr)
				}
			} else if c != nil {
				t.Errorf("GreedyMulticoverCtx returned a cover alongside error %v", err)
			}
			return err
		},
		"cover.csr.pop": func(t *testing.T, ctx context.Context) error {
			c, err := cover.CSRGreedyCtx(ctx, bigH, nil)
			if err == nil {
				if verr := check.ValidCover(bigH, c, nil, nil); verr != nil {
					t.Errorf("successful CSRGreedyCtx result invalid: %v", verr)
				}
			} else if c != nil {
				t.Errorf("CSRGreedyCtx returned a cover alongside error %v", err)
			}
			return err
		},
		"cover.primaldual.scan": func(t *testing.T, ctx context.Context) error {
			pd, err := cover.PrimalDualCtx(ctx, bigH, nil)
			if err == nil {
				if verr := check.ValidPrimalDual(bigH, nil, pd); verr != nil {
					t.Errorf("successful PrimalDualCtx result invalid: %v", verr)
				}
			} else if pd != nil {
				t.Errorf("PrimalDualCtx returned a result alongside error %v", err)
			}
			return err
		},
		"stats.bfs.source": func(t *testing.T, ctx context.Context) error {
			sw, err := stats.SmallWorldStatsCtx(ctx, bigH, 4)
			// Success or not, the (possibly partial, sampled) summary
			// must be internally consistent.
			if sw.Sources < 0 || sw.Sources > bigH.NumVertices() {
				t.Errorf("SmallWorldStatsCtx reports %d sources for %d vertices", sw.Sources, bigH.NumVertices())
			}
			if sw.Diameter < 0 || sw.AvgPathLength < 0 || sw.Pairs < 0 {
				t.Errorf("SmallWorldStatsCtx summary has negative fields: %+v", sw)
			}
			if err == nil && sw.Sources != bigH.NumVertices() {
				t.Errorf("successful SmallWorldStatsCtx completed %d of %d sources", sw.Sources, bigH.NumVertices())
			}
			return err
		},
		"hypergraph.read.line": func(t *testing.T, ctx context.Context) error {
			h, err := hypergraph.ReadTextCtx(ctx, bytes.NewReader(textData))
			if err == nil && h.NumEdges() != bigH.NumEdges() {
				t.Errorf("round trip read %d edges, want %d", h.NumEdges(), bigH.NumEdges())
			}
			return err
		},
		"mmio.read.entry": func(t *testing.T, ctx context.Context) error {
			m, err := mmio.ReadCtx(ctx, bytes.NewReader(mtxData))
			if err == nil && m.NNZ() != bigH.NumPins() {
				t.Errorf("round trip read %d entries, want %d", m.NNZ(), bigH.NumPins())
			}
			return err
		},
		"pajek.read.line": func(t *testing.T, ctx context.Context) error {
			info, err := pajek.ReadNetCtx(ctx, bytes.NewReader(netData))
			if err == nil && len(info.Labels) != bigH.NumVertices()+bigH.NumEdges() {
				t.Errorf("round trip read %d labels, want %d", len(info.Labels), bigH.NumVertices()+bigH.NumEdges())
			}
			return err
		},
		"dataset.load": func(t *testing.T, ctx context.Context) error {
			inst, err := dataset.LoadInstanceCtx(ctx, instDir)
			if err == nil && inst.H.NumVertices() == 0 {
				t.Error("successful LoadInstanceCtx returned an empty instance")
			}
			return err
		},
		"store.open": func(t *testing.T, ctx context.Context) error {
			st, err := store.OpenCtx(ctx, storePath)
			if err == nil {
				defer st.Close()
				h, herr := st.H()
				if herr != nil {
					t.Errorf("successful OpenCtx gave no hypergraph: %v", herr)
					return nil
				}
				c := h.CSR()
				if c.NumVertices() != bigH.NumVertices() || c.NumEdges() != bigH.NumEdges() || c.NumPins() != bigH.NumPins() {
					t.Errorf("successful OpenCtx decoded %d/%d/%d, want %d/%d/%d",
						c.NumVertices(), c.NumEdges(), c.NumPins(),
						bigH.NumVertices(), bigH.NumEdges(), bigH.NumPins())
				}
			} else if st != nil {
				t.Errorf("OpenCtx returned a store alongside error %v", err)
			}
			return err
		},
		"store.build": func(t *testing.T, ctx context.Context) error {
			dst := filepath.Join(t.TempDir(), "built.store")
			err := store.BuildFileCtx(ctx, dst, store.Source{
				Format: "text",
				Open: func() (io.ReadCloser, error) {
					return io.NopCloser(bytes.NewReader(textData)), nil
				},
			})
			if err == nil {
				st, oerr := store.Open(dst)
				if oerr != nil {
					t.Errorf("successful BuildFileCtx left an unopenable store: %v", oerr)
					return nil
				}
				defer st.Close()
				h, herr := st.H()
				if herr != nil {
					t.Errorf("successful BuildFileCtx left a store without a hypergraph: %v", herr)
					return nil
				}
				if h.NumEdges() != bigH.NumEdges() {
					t.Errorf("successful BuildFileCtx built %d edges, want %d", h.NumEdges(), bigH.NumEdges())
				}
			} else if _, serr := os.Stat(dst); serr == nil {
				t.Errorf("failed BuildFileCtx left %s behind", dst)
			}
			return err
		},
		"dist.send":      distDriver,
		"dist.recv":      distDriver,
		"dist.heartbeat": distDriver,
		"dist.reassign":  distDriver,
	}
}

// resilientSites are the fault-tolerant distributed-runtime sites.
// Their robustness contract is inverted relative to the kernels: an
// injected fault there is absorbed by worker-death replay from the last
// committed barrier or by the local fallback, so an error arm that
// fired followed by a clean, validated result is the expected outcome
// — not a swallowed error.
var resilientSites = map[string]bool{
	"dist.send":      true,
	"dist.recv":      true,
	"dist.heartbeat": true,
	"dist.reassign":  true,
}

// distDriver exercises all four distributed-runtime sites, and the
// coordinator's pass of core.sharded.exchange, through
// dist.DecomposeCtx with in-process workers over real loopback
// connections.  It kills one worker at the first committed barrier so
// every run crosses the death-recovery path (making dist.reassign
// reachable), and enables the local fallback so a pool collapse
// degrades to the in-process engine; a successful decomposition must
// agree with the paper's overlap peel exactly on vertex coreness.
func distDriver(t *testing.T, ctx context.Context) error {
	killed := false
	d, err := dist.DecomposeCtx(ctx, bigH, dist.Options{
		Workers:           3,
		Shards:            4,
		HeartbeatInterval: 15 * time.Millisecond,
		PhaseTimeout:      2 * time.Second,
		MaxRecoveries:     4,
		LocalFallback:     true,
		OnBarrier: func(k, round int32, kill func(worker int)) {
			if !killed {
				killed = true
				kill(1)
			}
		},
	})
	if err == nil {
		want := check.OverlapDecompose(bigH)
		if d.MaxK != want.MaxK {
			t.Errorf("successful dist.DecomposeCtx MaxK = %d, want %d", d.MaxK, want.MaxK)
		}
		for v, c := range want.VertexCoreness {
			if d.VertexCoreness[v] != c {
				t.Errorf("successful dist.DecomposeCtx: vertex %d coreness %d, want %d", v, d.VertexCoreness[v], c)
				break
			}
		}
	} else if d != nil {
		t.Errorf("dist.DecomposeCtx returned a result alongside error %v", err)
	}
	return err
}

// shardedDriver exercises the sharded driver's exchange site through
// ShardedDecomposeCtx; a successful decomposition must agree with the
// paper's overlap peel exactly on vertex coreness.
func shardedDriver(t *testing.T, ctx context.Context) error {
	d, err := core.ShardedDecomposeCtx(ctx, bigH, core.ShardedOptions{Shards: 4})
	if err == nil {
		want := check.OverlapDecompose(bigH)
		if d.MaxK != want.MaxK {
			t.Errorf("successful ShardedDecomposeCtx MaxK = %d, want %d", d.MaxK, want.MaxK)
		}
		for v, c := range want.VertexCoreness {
			if d.VertexCoreness[v] != c {
				t.Errorf("successful ShardedDecomposeCtx: vertex %d coreness %d, want %d", v, d.VertexCoreness[v], c)
				break
			}
		}
	} else if d != nil {
		t.Errorf("ShardedDecomposeCtx returned a result alongside error %v", err)
	}
	return err
}

// sequentialDriver exercises the sequential core routes, DecomposeCtx,
// KCoreCtx and BiCoreCtx, which pass every site of the one peel:
// partition.build, csr.build, core.sharded.exchange and csr.peel.
// Every route is called whatever the others returned, so an arm
// reaches all three, and their errors are joined for the harness.  A successful decomposition must
// agree with the paper's overlap peel exactly on vertex coreness, and
// a successful core must pass the checker.
func sequentialDriver(t *testing.T, ctx context.Context) error {
	d, derr := core.DecomposeCtx(ctx, bigH)
	if derr == nil {
		want := check.OverlapDecompose(bigH)
		if d.MaxK != want.MaxK {
			t.Errorf("successful DecomposeCtx MaxK = %d, want %d", d.MaxK, want.MaxK)
		}
		for v, c := range want.VertexCoreness {
			if d.VertexCoreness[v] != c {
				t.Errorf("successful DecomposeCtx: vertex %d coreness %d, want %d", v, d.VertexCoreness[v], c)
				break
			}
		}
	} else if d != nil {
		t.Errorf("DecomposeCtx returned a result alongside error %v", derr)
	}
	r, kerr := core.KCoreCtx(ctx, bigH, 2)
	if kerr == nil {
		if verr := check.ValidCore(bigH, 2, r); verr != nil {
			t.Errorf("successful KCoreCtx result invalid: %v", verr)
		}
	} else if r != nil {
		t.Errorf("KCoreCtx returned a result alongside error %v", kerr)
	}
	b, berr := core.BiCoreCtx(ctx, bigH, 2, 3)
	if berr == nil {
		if verr := check.ValidBiCore(bigH, 2, 3, b); verr != nil {
			t.Errorf("successful BiCoreCtx result invalid: %v", verr)
		}
	} else if b != nil {
		t.Errorf("BiCoreCtx returned a result alongside error %v", berr)
	}
	return errors.Join(derr, kerr, berr)
}

// sequentialSweepDriver runs every sequential core route on h, each
// whatever the others returned, and reports the first invalid result
// or error the robustness contract does not allow.
func sequentialSweepDriver(ctx context.Context, h *hypergraph.Hypergraph) error {
	for _, route := range []func() error{
		func() error {
			d, err := core.DecomposeCtx(ctx, h)
			if err == nil {
				err = check.ValidDecomposition(h, d)
			}
			return err
		},
		func() error {
			r, err := core.KCoreCtx(ctx, h, 2)
			if err == nil {
				err = check.ValidCore(h, 2, r)
			}
			return err
		},
		func() error {
			r, err := core.BiCoreCtx(ctx, h, 2, 3)
			if err == nil {
				err = check.ValidBiCore(h, 2, 3, r)
			}
			return err
		},
	} {
		if err := route(); err != nil && !cleanError(err) {
			return err
		}
	}
	return nil
}

var errBoom = errors.New("boom")

// cleanError reports whether err is one of the typed failures the
// robustness contract allows: an injected fault, a context error, a
// budget violation, or a recovered worker panic.
func cleanError(err error) bool {
	var wpe *core.WorkerPanicError
	return errors.Is(err, failpoint.ErrInjected) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, run.ErrBudgetExceeded) ||
		errors.As(err, &wpe) ||
		strings.Contains(err.Error(), "worker panic")
}

// runScenario arms site, runs drive under a panic boundary, disarms,
// and asserts the robustness contract: clean typed errors, injected
// panics either recovered by the library or surfaced verbatim, and no
// leaked goroutines.
func runScenario(t *testing.T, siteName string, arm failpoint.Arm, ctx context.Context, drive func(*testing.T, context.Context) error) {
	t.Helper()
	before := check.GoroutineSnapshot()
	if err := failpoint.Enable(siteName, arm); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disable(siteName)

	var err error
	panicked := func() (x any) {
		defer func() { x = recover() }()
		err = drive(t, ctx)
		return nil
	}()
	fired := failpoint.Fired(siteName)
	failpoint.Disable(siteName)

	if lerr := check.CheckNoLeaks(before, 2*time.Second); lerr != nil {
		t.Error(lerr)
	}

	switch {
	case panicked != nil:
		// Only a panic arm may escape, and only with the marker value —
		// anything else is a genuine crash.
		if arm.Mode != failpoint.ModePanic {
			t.Fatalf("%v arm caused a panic: %v", arm.Mode, panicked)
		}
		if p, ok := panicked.(failpoint.Panic); !ok || p.Site != siteName {
			t.Fatalf("panic arm threw %v, want failpoint.Panic{Site: %q}", panicked, siteName)
		}
	case err != nil:
		if !cleanError(err) {
			t.Fatalf("untyped error: %v", err)
		}
		if fired == 0 && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("error %v without the site firing", err)
		}
		if arm.Err != nil && errors.Is(err, failpoint.ErrInjected) && !errors.Is(err, errBoom) {
			t.Fatalf("injected error %v does not wrap the arm's custom error", err)
		}
	default:
		// Success is fine when the schedule kept the site from firing
		// (or a delay arm merely slowed the call down), but an error arm
		// that fired must not produce a clean return — except at the
		// resilient sites, where recovering from the fault and still
		// succeeding is precisely the contract under test.
		if arm.Mode == failpoint.ModeError && fired > 0 && !resilientSites[siteName] {
			t.Fatalf("error arm fired %d time(s) but the call succeeded", fired)
		}
	}
}

// TestChaosEverySiteEveryArm is the main chaos matrix: every
// registered site crossed with every arm kind, on inputs big enough
// for every periodic checkpoint to be reached.
func TestChaosEverySiteEveryArm(t *testing.T) {
	defer failpoint.DisableAll()
	noDeadline := func() (context.Context, context.CancelFunc) {
		return context.WithCancel(context.Background())
	}
	arms := []struct {
		name string
		arm  failpoint.Arm
		ctx  func() (context.Context, context.CancelFunc)
	}{
		{"error", failpoint.Arm{Mode: failpoint.ModeError}, noDeadline},
		{"error-custom", failpoint.Arm{Mode: failpoint.ModeError, Err: errBoom}, noDeadline},
		{"error-scheduled", failpoint.Arm{Mode: failpoint.ModeError, After: 2, Times: 1}, noDeadline},
		{"panic", failpoint.Arm{Mode: failpoint.ModePanic}, noDeadline},
		{"delay", failpoint.Arm{Mode: failpoint.ModeDelay, Delay: 30 * time.Millisecond}, func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 5*time.Millisecond)
		}},
	}
	ds := drivers()
	for _, siteName := range failpoint.Sites() {
		drive, ok := ds[siteName]
		if !ok {
			t.Errorf("registered failpoint %q has no chaos driver — add one to drivers()", siteName)
			continue
		}
		for _, a := range arms {
			t.Run(siteName+"/"+a.name, func(t *testing.T) {
				ctx, cancel := a.ctx()
				defer cancel()
				runScenario(t, siteName, a.arm, ctx, drive)
			})
		}
	}
}

// TestChaosDisabledIsClean runs every driver with no site armed: all
// calls must succeed and validate.  This also pins the contract that
// merely importing failpoint-instrumented packages injects nothing.
func TestChaosDisabledIsClean(t *testing.T) {
	for siteName, drive := range drivers() {
		t.Run(siteName, func(t *testing.T) {
			if err := drive(t, context.Background()); err != nil {
				t.Fatalf("no arm enabled, got error: %v", err)
			}
		})
	}
}

// TestChaosCancelledContext runs every driver with an already-expired
// context: each must fail fast with context.Canceled and return no
// half-built result (the drivers assert that themselves).
func TestChaosCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for siteName, drive := range drivers() {
		t.Run(siteName, func(t *testing.T) {
			err := drive(t, ctx)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
		})
	}
}

// TestChaosBudget runs every driver under a 1-step budget: each must
// stop with run.ErrBudgetExceeded once it reaches a checkpoint that
// charges steps (every driver's workload is far beyond one step).
func TestChaosBudget(t *testing.T) {
	for siteName, drive := range drivers() {
		t.Run(siteName, func(t *testing.T) {
			ctx, _ := run.WithBudget(context.Background(), run.Budget{MaxSteps: 1})
			err := drive(t, ctx)
			if !errors.Is(err, run.ErrBudgetExceeded) {
				t.Fatalf("want ErrBudgetExceeded, got %v", err)
			}
		})
	}
}

// TestChaosErrorArmOverSweep drives the kernel sites with an error arm
// across the differential sweep instances: small and degenerate inputs
// must either finish with a valid result (the site never fired) or
// fail with the injected error — never crash or wedge.
func TestChaosErrorArmOverSweep(t *testing.T) {
	defer failpoint.DisableAll()
	instances := check.Instances(12, 0xFA117)
	kernels := []struct {
		site  string
		drive func(ctx context.Context, h *hypergraph.Hypergraph) error
	}{
		{"cover.greedy.pop", func(ctx context.Context, h *hypergraph.Hypergraph) error {
			c, err := cover.GreedyMulticoverCtx(ctx, h, nil, nil)
			if err == nil {
				return check.ValidCover(h, c, nil, nil)
			}
			return err
		}},
		{"cover.csr.pop", func(ctx context.Context, h *hypergraph.Hypergraph) error {
			c, err := cover.CSRGreedyCtx(ctx, h, nil)
			if err == nil {
				return check.ValidCover(h, c, nil, nil)
			}
			return err
		}},
		{"cover.primaldual.scan", func(ctx context.Context, h *hypergraph.Hypergraph) error {
			pd, err := cover.PrimalDualCtx(ctx, h, nil)
			if err == nil {
				return check.ValidPrimalDual(h, nil, pd)
			}
			return err
		}},
		{"stats.bfs.source", func(ctx context.Context, h *hypergraph.Hypergraph) error {
			_, err := stats.SmallWorldStatsCtx(ctx, h, 2)
			return err
		}},
		{"core.sharded.exchange", func(ctx context.Context, h *hypergraph.Hypergraph) error {
			d, err := dist.DecomposeCtx(ctx, h, dist.Options{Workers: 2, Shards: 3})
			if err == nil {
				err = check.ValidDecomposition(h, d)
			}
			if err != nil && !cleanError(err) {
				return err
			}
			d, err = core.ShardedDecomposeCtx(ctx, h, core.ShardedOptions{Shards: 3})
			if err == nil {
				err = check.ValidDecomposition(h, d)
			}
			if err != nil && !cleanError(err) {
				return err
			}
			return sequentialSweepDriver(ctx, h)
		}},
		{"partition.build", func(ctx context.Context, h *hypergraph.Hypergraph) error {
			if _, err := partition.BuildCtx(ctx, h, 3); err != nil && !cleanError(err) {
				return err
			}
			return sequentialSweepDriver(ctx, h)
		}},
		{"csr.build", sequentialSweepDriver},
		{"csr.peel", sequentialSweepDriver},
	}
	for _, k := range kernels {
		t.Run(k.site, func(t *testing.T) {
			before := check.GoroutineSnapshot()
			if err := failpoint.Enable(k.site, failpoint.Arm{Mode: failpoint.ModeError}); err != nil {
				t.Fatal(err)
			}
			defer failpoint.Disable(k.site)
			for i, h := range instances {
				if err := k.drive(context.Background(), h); err != nil && !cleanError(err) {
					t.Fatalf("instance %d: %v", i, err)
				}
			}
			failpoint.Disable(k.site)
			if err := check.CheckNoLeaks(before, 2*time.Second); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestChaosFiredAccounting sanity-checks the determinism story end to
// end: the same workload under the same schedule fires the same number
// of times.  A zero-delay arm observes every checkpoint without
// perturbing the run.
func TestChaosFiredAccounting(t *testing.T) {
	defer failpoint.DisableAll()
	counts := [2]int{}
	for trial := range counts {
		if err := failpoint.Enable("hypergraph.read.line", failpoint.Arm{Mode: failpoint.ModeDelay}); err != nil {
			t.Fatal(err)
		}
		h, err := hypergraph.ReadTextCtx(context.Background(), bytes.NewReader(textData))
		if err != nil || h == nil {
			t.Fatalf("trial %d: unexpected failure: %v", trial, err)
		}
		counts[trial] = failpoint.Fired("hypergraph.read.line")
		failpoint.Disable("hypergraph.read.line")
	}
	if counts[0] == 0 {
		t.Fatal("the fixture never reached a read checkpoint; enlarge it")
	}
	if counts[0] != counts[1] {
		t.Fatalf("fire counts differ across identical runs: %v", counts)
	}
}
