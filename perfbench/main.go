// Command perfbench is the repository's benchmark. It runs one of three
// workloads against the library and service in-process and prints every
// metric by name with its unit, ending with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads:
//
//	flow    one core.RunFlow of the OTA problem (WBGA → Pareto → 200-sample MC → tables)
//	design  designer reuse of a built model: DesignFor, yield verification, §5 filter
//	serve   the ayd query path over loopback TCP under an open- and closed-loop generator
//
// With --trace 0 the JSON carries the end-to-end metrics, the same set on
// every workload: setup_s, op_latency_ms (a flow, a design task, or a
// low-rate query), throughput_per_s, peak_rss_mb and success_rate. With
// --trace 1 the run measures the workload untraced, then again with
// spans recorded around every call into a layer, replays each layer's
// public functions on inputs the run produced, and reports the
// per-layer metrics, the tracing overhead of each end-to-end metric and
// a span file. Every traced run reports every layer: the layers its
// workload does not load are measured by a short probe of the workload
// that does, on the run's own model (see probe.go).
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload flow --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics and outcome counts. Samples records
// how many observations stand behind each metric; it is printed on the
// human-readable lines, not in the JSON.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	samples map[string]int
	notes   []string
}

func newReport() *report {
	return &report{Correct: true, Metrics: map[string]metric{}, samples: map[string]int{}}
}

// set records a metric measured over n samples.
func (r *report) set(name string, v float64, unit string, n int) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = n
}

// fail records a failed operation with its cause.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	r.Correct = false
	if len(r.notes) < 20 {
		r.notes = append(r.notes, "FAIL: "+fmt.Sprintf(format, args...))
	}
}

// adopt merges a probe's report: its outcome counts and notes, and each
// metric r does not have yet (the workload's own measurement wins).
func (r *report) adopt(p *report) {
	r.Attempted += p.Attempted
	r.Failed += p.Failed
	r.Correct = r.Correct && p.Correct
	r.notes = append(r.notes, p.notes...)
	for k, m := range p.Metrics {
		if _, ok := r.Metrics[k]; !ok {
			r.Metrics[k] = m
			r.samples[k] = p.samples[k]
		}
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes the human-readable lines and then the JSON result line,
// which must stay the last line of standard output.
func (r *report) print() error {
	for _, n := range r.notes {
		fmt.Println("# " + n)
	}
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.Metrics[k]
		fmt.Printf("# %-32s %14.6g %-6s n=%d\n", k, m.Value, m.Unit, r.samples[k])
	}
	errRate := 0.0
	if r.Attempted > 0 {
		errRate = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Printf("# error_rate %.6g (%d failed of %d attempted); output checks: %s\n",
		errRate, r.Failed, r.Attempted, map[bool]string{true: "pass", false: "FAIL"}[r.Correct])
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// env is what every workload receives: its seed, measurement window,
// trace switch, output directory, the sizes of all workloads (a traced
// run probes the others) and the report to fill.
type env struct {
	seed    int64
	seconds time.Duration
	trace   bool
	out     string
	sz      sizes
	rep     *report
}

// sizes holds every workload's budgets.
type sizes struct {
	flow   flowSizes
	design designSizes
	serve  serveSizes
}

func defaultSizes() sizes {
	return sizes{flow: defaultFlowSizes(), design: defaultDesignSizes(), serve: defaultServeSizes()}
}

func main() {
	workload := flag.String("workload", "", "flow | design | serve")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "measurement window per run, seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span files and per-seed check state")
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace != 0,
		out:     *out,
		sz:      defaultSizes(),
		rep:     newReport(),
	}
	if err := runWorkload(e, *workload); err != nil {
		for _, n := range e.rep.notes {
			fmt.Fprintln(os.Stderr, "# "+n)
		}
		fatal(err)
	}
	if e.rep.Attempted < 1 {
		fatal(fmt.Errorf("workload %s attempted no operation", *workload))
	}
	if err := e.rep.print(); err != nil {
		fatal(err)
	}
}

func runWorkload(e *env, workload string) error {
	switch workload {
	case "flow":
		return runFlowWorkload(e)
	case "design":
		return runDesignWorkload(e)
	case "serve":
		return runServeWorkload(e)
	}
	return fmt.Errorf("unknown workload %q (want flow, design or serve)", workload)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// setupRepeats is how many times a workload with a short set-up builds
// it; setup_s is the median.
const setupRepeats = 3

// finishE2E sets the end-to-end metrics of an untraced run: the median
// set-up time, the median latency of one operation over n operations,
// the throughput over perN units of work, peak resident memory and the
// success rate (1 − error_rate; the error rate itself is 0 on a healthy
// run, and a metric that reads 0 has no relative spread).
func finishE2E(rep *report, setup []float64, opMS float64, n int, perS float64, perN int) {
	rep.set("setup_s", median(setup), "s", len(setup))
	rep.set("op_latency_ms", opMS, "ms", n)
	rep.set("throughput_per_s", perS, "1/s", perN)
	rep.set("peak_rss_mb", peakRSSMB(), "MB", 1)
	ok := 0.0
	if rep.Attempted > 0 {
		ok = float64(rep.Attempted-rep.Failed) / float64(rep.Attempted)
	}
	rep.set("success_rate", ok, "ratio", rep.Attempted)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// memDelta measures allocation and GC activity across a workload phase.
type memDelta struct{ before runtime.MemStats }

func startMemDelta() *memDelta {
	d := &memDelta{}
	runtime.ReadMemStats(&d.before)
	return d
}

func (d *memDelta) report(rep *report) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	rep.set("runtime.alloc_mb", float64(after.TotalAlloc-d.before.TotalAlloc)/(1<<20), "MB", 1)
	rep.set("runtime.gc_cycles", float64(after.NumGC-d.before.NumGC), "count", 1)
}

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// p99 reports the 99th percentile where at least ten samples lie beyond
// it, else the highest percentile that has ten beyond it.
func p99(xs []float64) float64 {
	q := 0.99
	if n := float64(len(xs)); n < 1000 {
		q = 1 - 10/max(n, 10)
	}
	return quantile(xs, q)
}

// overhead sets the tracing overhead of the two operation metrics: the
// traced value minus the untraced one.
func overhead(rep *report, tracedMS, untracedMS, tracedPerS, untracedPerS float64, n int) {
	rep.set("overhead.op_latency_ms", tracedMS-untracedMS, "ms", n)
	rep.set("overhead.throughput_per_s", tracedPerS-untracedPerS, "1/s", n)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// fits decides whether another operation of typical duration typ fits
// before the measurement window closes; the first operation always runs.
func fits(start time.Time, window, typ time.Duration, done int) bool {
	if done == 0 {
		return true
	}
	return time.Since(start)+typ <= window
}
