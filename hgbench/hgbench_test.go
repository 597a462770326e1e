package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestNearestRankLeavesTenBeyond(t *testing.T) {
	for n := 1; n <= 500; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed, to exercise the sort
		}
		v, beyond := nearestRank(xs, 90)
		if beyond != n/10 {
			t.Fatalf("n=%d: %d samples beyond p90, want %d", n, beyond, n/10)
		}
		if want := float64(n - n/10); v != want {
			t.Fatalf("n=%d: p90 = %v, want %v", n, v, want)
		}
	}
	if got := minSamples(90, 10); got != 100 {
		t.Fatalf("minSamples(90, 10) = %d, want 100", got)
	}
	if got := minSamples(99, 10); got != 1000 {
		t.Fatalf("minSamples(99, 10) = %d, want 1000", got)
	}
	if _, beyond := nearestRank(make([]float64, 99), 90); beyond >= 10 {
		t.Fatalf("99 samples leave %d beyond p90, want fewer than 10", beyond)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func msec(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeWithNestedSpans(t *testing.T) {
	spans := []span{
		{name: spanJob, job: 0, parent: -1, start: msec(0), end: msec(100), cpu: msec(100), alloc: 1000},
		{name: "a", job: 0, parent: 0, start: msec(10), end: msec(40), cpu: msec(30), alloc: 300},
		{name: "c", job: 0, parent: 1, start: msec(15), end: msec(20), cpu: msec(5), alloc: 100},
		{name: "b", job: 0, parent: 0, start: msec(40), end: msec(60), cpu: msec(20), alloc: 800},
	}
	self, alloc := selfCosts(spans)
	// The job's children a and b cover 50ms of its 100ms; a's child c
	// covers 5ms of a's 30ms.
	if want := []time.Duration{msec(50), msec(25), msec(5), msec(20)}; !slices.Equal(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	// Self allocation never goes below zero.
	if want := []uint64{0, 200, 100, 800}; !slices.Equal(alloc, want) {
		t.Fatalf("self allocations %v, want %v", alloc, want)
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer(true)
	tr.job = 7
	job := tr.begin(spanJob)
	a := tr.begin(spanRead)
	c := tr.begin(spanCensus)
	tr.end(c)
	tr.end(a)
	b := tr.begin(spanOutput)
	tr.end(b)
	tr.end(job)
	parents := []int32{-1, 0, 1, 0}
	for i, s := range tr.spans {
		if s.parent != parents[i] || s.job != 7 || s.end < s.start {
			t.Fatalf("span %d = %+v, want parent %d in job 7", i, s, parents[i])
		}
	}
	if len(tr.open) != 0 {
		t.Fatalf("%d spans left open", len(tr.open))
	}
	off := newTracer(false)
	if i := off.begin(spanJob); i != -1 {
		t.Fatalf("untraced begin = %d, want -1", i)
	}
	off.end(-1)
	if len(off.spans) != 0 {
		t.Fatal("untraced tracer recorded spans")
	}
}

func TestLayerStats(t *testing.T) {
	spans := []span{
		{name: spanBuild, job: -1, parent: -1, cpu: msec(7)},
		{name: spanBuild, job: -1, parent: -1, cpu: msec(3)},
		{name: spanJob, job: 0, parent: -1, cpu: msec(20)},
		{name: spanRead, job: 0, parent: 2, cpu: msec(10), alloc: 2 << 20},
		{name: spanJob, job: 1, parent: -1, cpu: msec(30)},
		{name: spanRead, job: 1, parent: 4, cpu: msec(5), alloc: 4 << 20},
		{name: spanRead, job: 1, parent: 4, cpu: msec(10), alloc: 2 << 20},
	}
	got := layerStats(spans)
	// Job 1 reads twice: its read time sums to 15ms.
	if st := got[spanRead]; st.ms != 12.5 || st.allocMB != 4 || st.share != 25.0/50 {
		t.Errorf("read = %+v, want 12.5ms, 4 MiB, share 0.5", st)
	}
	if st := got[spanGap]; st.ms != 12.5 || st.share != 25.0/50 {
		t.Errorf("gap = %+v, want 12.5ms, share 0.5", st)
	}
	// Set-up spans belong to no job: each is a sample of its own.
	if st := got[spanBuild]; st.ms != 5 {
		t.Errorf("build = %+v, want median 5ms", st)
	}
}

func TestMetricNames(t *testing.T) {
	for _, name := range []string{"job_ms_p50", "hypergraph.read_ms", "9a-b.c_d", strings.Repeat("x", 64)} {
		if err := checkMetricNames(map[string]metric{name: {}}); err != nil {
			t.Errorf("%q rejected: %v", name, err)
		}
	}
	for _, name := range []string{"", "_x", ".x", "a b", "pins/s", "é", strings.Repeat("x", 65)} {
		if err := checkMetricNames(map[string]metric{name: {}}); err == nil {
			t.Errorf("%q accepted", name)
		}
	}
}

// tiny keeps the smoke runs fast.
var tiny = sizes{proteins: 300, complexes: 40, rows: 300, inputs: 2}

func TestJobsSmoke(t *testing.T) {
	ctx := context.Background()
	for name, wl := range workloads {
		t.Run(name, func(t *testing.T) {
			tr := newTracer(true)
			inputs, err := setUp(ctx, wl, tr, t.TempDir(), tiny, 1)
			if err != nil {
				t.Fatal(err)
			}
			for i, in := range inputs {
				tr.job = int32(i)
				ans, err := wl.job(ctx, tr, in.path, io.Discard)
				if err == nil {
					err = check(ans, in.ref)
				}
				if err != nil {
					t.Fatalf("input %d: %v", i, err)
				}
				if wl.probe != nil {
					if err := wl.probe(ctx, tr, in.path); err != nil {
						t.Fatal(err)
					}
				}
			}
			// A wrong answer is caught.
			bad := inputs[0].ref
			bad.maxK++
			ans, _ := wl.job(ctx, newTracer(false), inputs[0].path, io.Discard)
			if check(ans, bad) == nil {
				t.Fatal("check accepted a wrong maximum core")
			}
		})
	}
}

// TestBenchReportsDeclaredMetrics runs each workload briefly in both
// modes and checks the report against the metric lists in
// BENCHMARK.json.
func TestBenchReportsDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	declared := func(ms []struct{ Name, Unit string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name+" "+m.Unit)
		}
		sort.Strings(out)
		return out
	}
	reported := func(ms map[string]metric) []string {
		var out []string
		for name, m := range ms {
			out = append(out, name+" "+m.Unit)
		}
		sort.Strings(out)
		return out
	}
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 3, seconds: 1, traced: traced, dir: t.TempDir(), sz: tiny}
			res, md, err := bench(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: %d of %d jobs failed", name, traced, res.Failed, res.Attempted)
			}
			want := declared(spec.EndToEnd)
			if traced {
				want = declared(spec.PerLayer)
				if _, err := os.Stat(md.TraceFile); err != nil {
					t.Fatalf("%s: no trace file: %v", name, err)
				}
			} else if md.P90Beyond < 10 {
				t.Fatalf("%s: %d samples beyond p90, want at least 10", name, md.P90Beyond)
			}
			if got := reported(res.Metrics); !slices.Equal(got, want) {
				t.Fatalf("%s traced=%v reports\n%v\nwant\n%v", name, traced, got, want)
			}
		}
	}
}
