package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// meta is the run's metadata line, one schema for every workload and
// mode: the machine, the build, the seed and the job counts behind the
// metrics.
type meta struct {
	Schema     string `json:"schema"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Traced     bool   `json:"traced"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	Inputs     int    `json:"inputs"`
	WarmupJobs int    `json:"warmup_jobs"`
	TimedJobs  int    `json:"timed_jobs"`
	// P90Beyond is the number of untraced timed jobs slower than
	// job_ms_p90.
	P90Beyond int `json:"p90_samples_beyond"`
	// Wall-clock figures, which include the time the host steals from
	// the virtual CPUs; the metrics use CPU time.
	SetupWallS []float64 `json:"setup_wall_s"`
	WallMsP50  float64   `json:"job_wall_ms_p50"`
	WallMsP90  float64   `json:"job_wall_ms_p90"`
	// CalMs is the drift probe before and after the timed jobs; it is
	// a diagnostic and scales no metric.
	CalMs         [2]float64 `json:"machine_cal_ms_before_after"`
	GCPerJob      float64    `json:"gc_per_job"`
	PeakRSSMaxMiB float64    `json:"peak_rss_max_mb"`
	TraceFile     string     `json:"trace_file,omitempty"`
}

func newMeta(workload string, seed uint64, traced bool) meta {
	return meta{
		Schema:     "hyperplex-bench/1",
		Workload:   workload,
		Seed:       seed,
		Traced:     traced,
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     revision,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// revision is the commit the binary was built from; run.sh sets it at
// link time when the checkout is a git work tree.
var revision = "unknown"

// calSink keeps the calibration loop's result observable.
var calSink uint64

// calibrate times a fixed xorshift loop that runs no repository code
// and returns the median of five timings in milliseconds, so a noisy
// verdict can be blamed on the machine or on the program.
func calibrate() float64 {
	ms := make([]float64, 5)
	for i := range ms {
		t := time.Now()
		x := uint64(88172645463325252)
		for j := 0; j < 20_000_000; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calSink += x
		ms[i] = float64(time.Since(t)) / float64(time.Millisecond)
	}
	return median(ms)
}

// resetPeakRSS resets the kernel's resident high-water mark (VmHWM)
// for this process.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMiB reads the resident high-water mark since the last reset.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// counters reads the process's cumulative heap allocation and GC cycle
// count through runtime/metrics, which does not stop the world.
type counters struct {
	samples []metrics.Sample
}

func newCounters() *counters {
	return &counters{samples: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}}
}

func (c *counters) read() (allocBytes, gcCycles uint64) {
	metrics.Read(c.samples)
	return c.samples[0].Value.Uint64(), c.samples[1].Value.Uint64()
}

// cpuTime is the CPU time the process has used, user plus system, over
// all its threads.  Unlike wall time it excludes time the host steals
// from the virtual CPUs.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
