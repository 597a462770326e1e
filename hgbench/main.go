// Command hgbench is hyperplex's end-to-end and per-layer benchmark.
//
// Usage:
//
//	hgbench --workload baits|matrix|shards|dist --seed N --seconds S --trace 0|1 [--dir DIR]
//
// It generates one workload's inputs from the seed, then runs that
// workload's job in a closed loop with one client: the next job starts
// when the previous one has returned.  A job makes in-process the
// public calls the CLI's default route makes, from opening the input
// file to the last byte of the answer written, and its answer is
// checked against a reference computed at set-up by another engine.
// Each workload has a single job shape; the seed only varies the
// instances of one spec:
//
//   - baits: hgstats, hgcore -max and hgcover -weights degree2 -r 2
//     -skip-singletons over one read of a 20000-protein synthetic
//     proteome in text format.  The only workload that runs the text
//     parser, stats and cover.
//   - matrix: hgcore -decompose -mtx on a banded 8000×8000 Matrix
//     Market file: the mmio parser and the sequential CSR peel.
//   - shards: hgcore -decompose -shards 2 -store on the matrix
//     workload's instances, converted to store files at set-up: the
//     sharded BSP engine.
//   - dist: hgcore -decompose -dist 2 -shards 2 -store with two
//     in-process workers over loopback TCP: the distributed runtime.
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics: pins_per_s, job_ms_p50, job_ms_p90, setup_s,
// peak_rss_mb and alloc_mb_per_job.  Job and set-up times are process
// CPU time (user plus system, all threads): on a shared host, wall time
// also counts the time the host steals from the virtual CPUs, which
// moves from run to run far more than the program does.  The wall-clock
// figures are in the metadata line that precedes the result.
//
// With --trace 1 the loop alternates untraced and traced jobs, records
// a span around each layer call of the traced ones, writes the spans as
// Chrome trace-event JSON under DIR and reports per-layer metrics
// instead: per span S, S_ms (median self CPU time per job), S_share
// (summed self CPU time ÷ summed job CPU time) and S_alloc_mb (median
// MiB allocated per job), plus GC cycles per job, answer counts that
// must repeat exactly, the tracing overhead and the machine drift probe.
//
// Every timed job starts from a collected heap whose free pages have
// been returned to the kernel, as a fresh CLI process would, and the
// harness keeps no generated hypergraph in its heap while the jobs run:
// inputs stay on disk.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
	dir      string
	sz       sizes
}

// setups is the number of set-ups per run; setup_s is their median.
const setups = 3

// jobRecord is one timed job.  It keeps only scalars, so the harness
// heap does not grow with the jobs it has run.
type jobRecord struct {
	wall     time.Duration
	cpu      time.Duration // process CPU time, all threads
	alloc    uint64        // heap bytes allocated
	gcs      uint64        // GC cycles completed
	rssMiB   float64       // resident high-water mark
	pins     int
	traced   bool
	maxK     int
	cover    int // cover size, baits only
	barriers int // dist only
	err      error
}

func main() {
	workload := flag.String("workload", "", "workload: baits, matrix, shards or dist")
	seed := flag.Uint64("seed", 1, "seed the run's inputs are generated from")
	seconds := flag.Int("seconds", 10, "length of the timed loop in seconds")
	trace := flag.Int("trace", 0, "1 runs traced and reports per-layer metrics; 0 reports end-to-end metrics")
	dir := flag.String("dir", filepath.Join(".bench_build", "hgbench"), "directory for generated inputs and traces")
	flag.Parse()
	if _, ok := workloads[*workload]; !ok || flag.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "usage: hgbench --workload baits|matrix|shards|dist --seed N --seconds S --trace 0|1 [--dir DIR]")
		os.Exit(2)
	}
	cfg := config{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1,
		dir: *dir, sz: fullSize,
	}
	res, md, err := bench(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hgbench: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(md); err != nil {
		fmt.Fprintf(os.Stderr, "hgbench: %v\n", err)
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "hgbench: %v\n", err)
		os.Exit(1)
	}
}

// bench runs one workload: set-up, warm-up, the timed loop and the
// metrics of the requested mode.
func bench(ctx context.Context, cfg config) (result, meta, error) {
	wl := workloads[cfg.workload]
	md := newMeta(cfg.workload, cfg.seed, cfg.traced)
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return result{}, md, err
	}
	work, err := os.MkdirTemp(cfg.dir, cfg.workload+"-")
	if err != nil {
		return result{}, md, err
	}
	defer os.RemoveAll(work)
	tr := newTracer(cfg.traced)

	// Set up several times, since one set-up is short enough for
	// machine drift to dominate it; the jobs use the last one's inputs.
	var inputs []input
	var setupCPU []float64
	for i := 0; i < setups; i++ {
		dir := filepath.Join(work, fmt.Sprint("setup", i))
		start, cpu0 := time.Now(), cpuTime()
		inputs, err = setUp(ctx, wl, tr, dir, cfg.sz, cfg.seed)
		setupCPU = append(setupCPU, (cpuTime() - cpu0).Seconds())
		md.SetupWallS = append(md.SetupWallS, time.Since(start).Seconds())
		if err != nil {
			return result{}, md, err
		}
		if i > 0 {
			if err := os.RemoveAll(filepath.Join(work, fmt.Sprint("setup", i-1))); err != nil {
				return result{}, md, err
			}
		}
	}
	md.Inputs = len(inputs)

	// Warm-up: one discarded pass over the inputs.  A job that fails
	// here fails again, and is counted, in the timed loop.
	untraced := newTracer(false)
	for _, in := range inputs {
		_, _ = wl.job(ctx, untraced, in.path, io.Discard)
	}
	md.WarmupJobs = len(inputs)

	md.CalMs[0] = calibrate()
	recs, err := timedLoop(ctx, wl, tr, inputs, cfg)
	if err != nil {
		return result{}, md, err
	}
	md.CalMs[1] = calibrate()

	res := result{Attempted: len(recs), Metrics: map[string]metric{}}
	var plain, traced []jobRecord
	for _, r := range recs {
		if r.traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		if r.err != nil {
			res.Failed++
			if res.Failed <= 3 {
				fmt.Fprintf(os.Stderr, "hgbench: job failed: %v\n", r.err)
			}
		}
	}
	res.Correct = res.Failed == 0
	md.TimedJobs = len(recs)
	cpuMs := column(plain, func(r jobRecord) float64 { return msOf(r.cpu) })
	wallMs := column(plain, func(r jobRecord) float64 { return msOf(r.wall) })
	p90, beyond := nearestRank(cpuMs, 90)
	md.P90Beyond = beyond
	md.WallMsP50 = median(wallMs)
	md.WallMsP90, _ = nearestRank(wallMs, 90)
	md.GCPerJob = mean(column(plain, func(r jobRecord) float64 { return float64(r.gcs) }))
	md.PeakRSSMaxMiB = slices.Max(column(plain, func(r jobRecord) float64 { return r.rssMiB }))

	if !cfg.traced {
		var pins int
		var cpu time.Duration
		for _, r := range plain {
			pins += r.pins
			cpu += r.cpu
		}
		res.Metrics["pins_per_s"] = metric{float64(pins) / cpu.Seconds(), "pins/s"}
		res.Metrics["job_ms_p50"] = metric{median(cpuMs), "ms"}
		res.Metrics["job_ms_p90"] = metric{p90, "ms"}
		res.Metrics["setup_s"] = metric{median(setupCPU), "s"}
		res.Metrics["peak_rss_mb"] = metric{median(column(plain, func(r jobRecord) float64 { return r.rssMiB })), "MiB"}
		res.Metrics["alloc_mb_per_job"] = metric{mean(column(plain, func(r jobRecord) float64 { return float64(r.alloc) })) / (1 << 20), "MiB"}
	} else {
		md.TraceFile = filepath.Join(cfg.dir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := writeChromeTrace(md.TraceFile, tr.spans); err != nil {
			return result{}, md, err
		}
		layerMetrics(res.Metrics, tr.spans, plain, traced)
		res.Metrics["machine.cal_ms"] = metric{(md.CalMs[0] + md.CalMs[1]) / 2, "ms"}
	}
	if err := checkMetricNames(res.Metrics); err != nil {
		return result{}, md, err
	}
	return res, md, nil
}

// timedLoop runs jobs until the run's seconds have passed and every
// input has run equally often; an untraced run also runs until ten jobs
// lie beyond the 90th percentile.  A traced run, which reports no
// percentile, runs each input untraced and then traced.
func timedLoop(ctx context.Context, wl workload, tr *tracer, inputs []input, cfg config) ([]jobRecord, error) {
	perInput, minJobs := 1, minSamples(90, 10)
	if cfg.traced {
		perInput, minJobs = 2, 0
	}
	cycle := perInput * len(inputs)
	untraced := newTracer(false)
	ctr := newCounters()
	var recs []jobRecord
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for n := 0; n < minJobs || n%cycle != 0 || time.Now().Before(deadline); n++ {
		in := inputs[n/perInput%len(inputs)]
		jt := untraced
		if cfg.traced && n%2 == 1 {
			jt = tr
			tr.job = int32(n)
		}
		// Each job starts from a collected heap, with the freed pages
		// returned to the kernel, and from its own resident high-water
		// mark, as a fresh CLI process would.
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		alloc0, gc0 := ctr.read()
		cpu0, start := cpuTime(), time.Now()
		s := jt.begin(spanJob)
		ans, err := wl.job(ctx, jt, in.path, io.Discard)
		jt.end(s)
		wall, cpu := time.Since(start), cpuTime()-cpu0
		alloc1, gc1 := ctr.read()
		rss, rerr := peakRSSMiB()
		if rerr != nil {
			return nil, rerr
		}
		if err == nil {
			err = check(ans, in.ref)
		}
		recs = append(recs, jobRecord{
			wall: wall, cpu: cpu, alloc: alloc1 - alloc0, gcs: gc1 - gc0, rssMiB: rss,
			pins: in.pins, traced: jt.on,
			maxK: ans.maxK, cover: ans.coverSize, barriers: ans.barriers, err: err,
		})
		if jt.on && wl.probe != nil {
			if err := wl.probe(ctx, tr, in.path); err != nil {
				return nil, err
			}
		}
	}
	return recs, nil
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func column(recs []jobRecord, f func(jobRecord) float64) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = f(r)
	}
	return out
}

// layerMetrics adds a traced run's per-layer metrics to out.  Every
// layer is reported on every workload; a layer the workload does not
// run reads 0.
func layerMetrics(out map[string]metric, spans []span, plain, traced []jobRecord) {
	byLayer := layerStats(spans)
	for _, name := range layers {
		st := byLayer[name]
		out[name+"_ms"] = metric{st.ms, "ms"}
		out[name+"_share"] = metric{st.share, "ratio"}
		out[name+"_alloc_mb"] = metric{st.allocMB, "MiB"}
	}
	// The lower median is one job's value, so it repeats exactly.
	count := func(f func(jobRecord) float64) metric {
		v, _ := nearestRank(column(traced, f), 50)
		return metric{v, "count"}
	}
	out["core.max_k"] = count(func(r jobRecord) float64 { return float64(r.maxK) })
	out["cover.size"] = count(func(r jobRecord) float64 { return float64(r.cover) })
	out["dist.barriers"] = count(func(r jobRecord) float64 { return float64(r.barriers) })
	out["runtime.gc_per_job"] = metric{mean(column(traced, func(r jobRecord) float64 { return float64(r.gcs) })), "count"}
	cpu := func(r jobRecord) float64 { return msOf(r.cpu) }
	out["trace.overhead_pct"] = metric{(median(column(traced, cpu))/median(column(plain, cpu)) - 1) * 100, "%"}
}
