package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime/metrics"
	"time"
)

// Span names.  The job span is the root of every timed job; each layer
// span wraps one public call (or a group of calls into one package)
// that the job makes.  store.build runs during set-up and
// partition.build is a probe run after a traced job, off its path.
const (
	spanJob       = "job"
	spanRead      = "hypergraph.read"
	spanCensus    = "stats.census"
	spanDecompose = "core.decompose"
	spanCover     = "cover.multicover"
	spanVerify    = "cover.verify"
	spanMMIORead  = "mmio.read"
	spanMMIOToH   = "mmio.to_hypergraph"
	spanOpen      = "store.open"
	spanClose     = "store.close"
	spanBuild     = "store.build"
	spanSharded   = "core.sharded"
	spanPartition = "partition.build"
	spanDist      = "dist.decompose"
	spanOutput    = "cli.output"
	// spanGap names the job span's self time in the metrics: job time
	// not under any layer span, i.e. harness overhead.
	spanGap = "bench.gap"
)

// layers lists every span a traced run reports, in report order.
var layers = []string{
	spanRead, spanCensus, spanDecompose, spanCover, spanVerify,
	spanMMIORead, spanMMIOToH, spanOpen, spanClose, spanBuild,
	spanSharded, spanPartition, spanDist, spanOutput, spanGap,
}

// span is one recorded interval.  Times are wall-clock offsets from
// the tracer's start; cpu is the process CPU time and alloc the heap
// bytes allocated during the span.
type span struct {
	name       string
	job        int32 // timed job the span belongs to, -1 during set-up
	parent     int32 // index of the enclosing span, -1 for a root
	start, end time.Duration
	cpu        time.Duration
	alloc      uint64
}

// tracer records spans into an in-memory buffer when on; when off,
// begin and end do nothing.  It is driven by the benchmark's single
// client goroutine only, so spans nest strictly.
type tracer struct {
	on    bool
	job   int32
	t0    time.Time
	open  []int32 // spans begun and not yet ended, innermost last
	spans []span
	heap  []metrics.Sample
}

func newTracer(on bool) *tracer {
	t := &tracer{on: on, job: -1, t0: time.Now(), heap: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
	if on {
		// Sized for a traced run's jobs so the buffer rarely grows
		// mid-run.
		t.spans = make([]span, 0, 1<<14)
	}
	return t
}

func (t *tracer) allocated() uint64 {
	metrics.Read(t.heap)
	return t.heap[0].Value.Uint64()
}

// begin opens a span nested in the innermost open span and returns its
// handle for end.
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, job: t.job, parent: parent, alloc: t.allocated()})
	i := len(t.spans) - 1
	t.open = append(t.open, int32(i))
	t.spans[i].cpu = cpuTime()
	t.spans[i].start = time.Since(t.t0)
	return i
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	s := &t.spans[i]
	s.end = time.Since(t.t0)
	s.cpu = cpuTime() - s.cpu
	s.alloc = t.allocated() - s.alloc
	t.open = t.open[:len(t.open)-1]
}

// selfCosts returns each span's self CPU time and self allocation: its
// own minus that of its child spans.  Children nest strictly inside
// their parent and do not overlap, so this is the span's duration less
// the part its children cover.
func selfCosts(spans []span) (cpu []time.Duration, alloc []uint64) {
	cpu = make([]time.Duration, len(spans))
	alloc = make([]uint64, len(spans))
	for i, s := range spans {
		cpu[i], alloc[i] = s.cpu, s.alloc
	}
	for _, s := range spans {
		if p := s.parent; p >= 0 {
			cpu[p] -= min(cpu[p], s.cpu)
			alloc[p] -= min(alloc[p], s.alloc)
		}
	}
	return cpu, alloc
}

// layerStat is one layer's per-layer metrics.
type layerStat struct {
	ms      float64 // median self CPU time per job
	share   float64 // summed self CPU time ÷ summed job CPU time
	allocMB float64 // median self allocation per job, MiB
}

// layerStats aggregates spans by layer.  A layer's per-job value sums
// its spans within the job; a span outside any job (set-up) is a sample
// of its own.  The job span's self cost is reported as bench.gap.
func layerStats(spans []span) map[string]layerStat {
	cpu, alloc := selfCosts(spans)
	type key struct {
		name  string
		group int
	}
	var order []key
	cpus := map[key]time.Duration{}
	allocs := map[key]uint64{}
	sums := map[string]time.Duration{}
	var jobCPU time.Duration
	for i, s := range spans {
		name := s.name
		if name == spanJob {
			name = spanGap
			jobCPU += s.cpu
		}
		k := key{name, int(s.job)}
		if s.job < 0 {
			k.group = -1 - i
		}
		if _, seen := cpus[k]; !seen {
			order = append(order, k)
		}
		cpus[k] += cpu[i]
		allocs[k] += alloc[i]
		sums[name] += cpu[i]
	}
	ms := map[string][]float64{}
	mb := map[string][]float64{}
	for _, k := range order {
		ms[k.name] = append(ms[k.name], msOf(cpus[k]))
		mb[k.name] = append(mb[k.name], float64(allocs[k])/(1<<20))
	}
	out := map[string]layerStat{}
	for name, xs := range ms {
		st := layerStat{ms: median(xs), allocMB: median(mb[name])}
		if jobCPU > 0 {
			st.share = float64(sums[name]) / float64(jobCPU)
		}
		out[name] = st
	}
	return out
}

// writeChromeTrace writes the spans as Chrome trace-event JSON
// (complete events, microsecond timestamps), which Perfetto and
// chrome://tracing open directly.
func writeChromeTrace(path string, spans []span) error {
	type args struct {
		Job        int32   `json:"job"`
		Parent     int32   `json:"parent"`
		CPUUs      float64 `json:"cpu_us"`
		AllocBytes uint64  `json:"alloc_bytes"`
	}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Args args    `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
			Args: args{Job: s.job, Parent: s.parent, CPUUs: float64(s.cpu) / float64(time.Microsecond), AllocBytes: s.alloc},
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	doc := struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{events, "ms"}
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
