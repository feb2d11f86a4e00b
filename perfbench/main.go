// Command perfbench is hsmodel's end-to-end benchmark. It drives hsmodel only
// through its public functions and its HTTP wire, from one process, and
// prints one JSON result line:
//
//	go run . --workload serve_read --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//	serve_read    closed-loop predict traffic against a small model fleet
//	serve_update  the §3.3 update protocol beside open-loop reads
//	paper_study   the offline study: collect, fit, interpolate, SpMV
//
// With --trace 0 the result carries the end-to-end metrics. With --trace 1
// the run measures an untraced window and then a traced one, wraps spans
// around the benchmark's own calls into each layer, writes the spans to
// --spans, and reports the per-layer metrics plus the tracing overhead.
// NOTES.md documents every metric and how it is derived.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run. Every workload reports all of
// them; NOTES.md gives each one's meaning per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"light_p50_ms", "ms"},
	{"heavy_p50_ms", "ms"},
	{"medape", "ratio"},
	{"heap_peak_mb", "MB"},
	{"ok_ratio", "ratio"},
}

// perLayer are the metrics of a traced run, derived from spans and counters
// at the benchmark's calls into each layer. A layer a workload does not run
// reports 0.
var perLayer = []metricDef{
	{"serve.socket_us", "us"},
	{"serve.handler_us", "us"},
	{"serve.decode_us", "us"},
	{"serve.decode_allocs", "count"},
	{"serve.encode_us", "us"},
	{"serve.samples_decode_us", "us"},
	{"registry.resolve_ns", "ns"},
	{"registry.sheds", "count"},
	{"registry.evalcache_misses", "count"},
	{"batcher.wait_us", "us"},
	{"batcher.items_per_flush", "count"},
	{"predict.batch_ns_per_row", "ns"},
	{"predict.scalar_ns", "ns"},
	{"predict.app_ns_per_shard", "ns"},
	{"predict.allocs_per_row", "count"},
	{"serve_read.sweep_share", "ratio"},
	{"fit.featurize_ms", "ms"},
	{"fit.gram_build_ms", "ms"},
	{"fit.generation_ms", "ms"},
	{"fit.evals", "count"},
	{"fit.eval_us", "us"},
	{"fit.memo_miss_ratio", "ratio"},
	{"fit.gram_share", "ratio"},
	{"fit.gram_entry_hit_ratio", "ratio"},
	{"fit.select_ms", "ms"},
	{"update.read_late_ms", "ms"},
	{"trace.gen_ms", "ms"},
	{"trace.minst_per_s", "Minst/s"},
	{"profile.ms", "ms"},
	{"profile.minst_per_s", "Minst/s"},
	{"cpu.sim_ms", "ms"},
	{"cpu.minst_per_s", "Minst/s"},
	{"collector.share_ratio", "ratio"},
	{"spmv.gen_ms", "ms"},
	{"spmv.bcsr_ms", "ms"},
	{"spmv.bcsr_count", "count"},
	{"spmv.bcsr_allocs", "count"},
	{"spmv.kernel_ms", "ms"},
	{"spmv.kernels", "count"},
	{"cache.accesses", "count"},
	{"cache.maccess_per_s", "Maccess/s"},
	{"spmv.variant_reuse_ratio", "ratio"},
	{"spmv.fit_ms", "ms"},
	{"spmv.tune_ms", "ms"},
	{"study.spmv_medape", "ratio"},
	{"study.coord_speedup", "ratio"},
	{"trace.overhead_pct", "%"},
}

// options are the command-line settings every workload reads.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	spans    string
}

func (o options) window() time.Duration { return time.Duration(o.seconds) * time.Second }

// environment is one workload's set-up state: the inputs and the booted
// system a measured window runs against.
type environment interface {
	// window runs the measured workload for about o.window(). With a non-nil
	// tracer it records spans and fills the per-layer figures.
	window(o options, tr *tracer, led *ledger) (*windowOut, error)
	close()
}

// windowOut is what one measured window produced.
type windowOut struct {
	e2e    map[string]float64 // every end_to_end metric except setup_s, heap_peak_mb, ok_ratio
	layers map[string]float64 // per-layer figures (traced windows)
	detail map[string]any     // diagnostics for stderr and the span dump
}

// workloads maps each workload name to its set-up function.
var workloads = map[string]func(options) (environment, error){
	"serve_read":   setupServeRead,
	"serve_update": setupServeUpdate,
	"paper_study":  setupPaperStudy,
}

// setups is how many times a run sets up; setup_s is their median.
const setups = 3

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "serve_read, serve_update or paper_study")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: add a traced window and report per-layer metrics")
	flag.StringVar(&o.spans, "spans", filepath.Join(".bench_build", "spans"), "directory for the traced run's span dump")
	flag.Parse()
	o.trace = traceFlag == 1
	if _, ok := workloads[o.workload]; !ok || o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload serve_read|serve_update|paper_study, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	res, err := run(o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run sets the workload up several times, measures the untraced window and,
// with o.trace, the traced one, and assembles the result line.
func run(o options, log io.Writer) (*result, error) {
	envs, setupTimes, err := setUp(o)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, e := range envs {
			e.close()
		}
	}()
	setupS := median(setupTimes)

	// The set-ups' garbage is collected first, so the peak reflects the
	// environment and the window's own work.
	runtime.GC()
	heap := startHeapSampler()
	led := newLedger()
	untraced, err := envs[len(envs)-1].window(o, nil, led)
	peakMB := heap.stop()
	if err != nil {
		return nil, err
	}
	attempted, failed := led.totals()
	phases, notes := led.snapshot()
	fmt.Fprintf(log, "perfbench %s seed %d on %v: setup %.3fs (each %v)\n", o.workload, o.seed, hostFacts(), setupS, setupTimes)
	printPhases(log, phases, notes)
	printDetail(log, "untraced", untraced.detail)

	res := &result{
		Correct:   led.reason(failWrong) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metricValue{},
	}
	if attempted < 1 {
		return nil, fmt.Errorf("%s: no operation was attempted", o.workload)
	}
	if !o.trace {
		untraced.e2e["setup_s"] = setupS
		untraced.e2e["heap_peak_mb"] = peakMB
		untraced.e2e["ok_ratio"] = float64(attempted-failed) / float64(attempted)
		for _, m := range endToEnd {
			v, ok := untraced.e2e[m.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%s: metric %s was not measured", o.workload, m.name)
			}
			res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		}
		return res, nil
	}

	// The traced window runs on its own, identically built environment.
	tr := newTracer()
	tled := newLedger()
	traced, err := envs[len(envs)-2].window(o, tr, tled)
	if err != nil {
		return nil, err
	}
	ta, tf := tled.totals()
	res.Attempted += ta
	res.Failed += tf
	res.Correct = res.Correct && tled.reason(failWrong) == 0
	tphases, tnotes := tled.snapshot()
	printPhases(log, tphases, tnotes)
	printDetail(log, "traced", traced.detail)

	overhead := map[string]float64{}
	for name, v := range untraced.e2e {
		if t, ok := traced.e2e[name]; ok && v != 0 {
			overhead[name] = 100 * (t - v) / v
		}
	}
	traced.layers["trace.overhead_pct"] = overhead["heavy_p50_ms"]
	spans := tr.all()
	stats := layerStats(spans)
	printLayers(log, stats)
	for _, m := range perLayer {
		v := traced.layers[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	dump := map[string]any{
		"workload":     o.workload,
		"seed":         o.seed,
		"seconds":      o.seconds,
		"host":         hostFacts(),
		"setup_s":      setupTimes,
		"untraced":     untraced.e2e,
		"traced":       traced.e2e,
		"overhead_pct": overhead,
		"per_layer":    res.Metrics,
		"layer_stats":  stats,
		"phases":       map[string]any{"untraced": phases, "traced": tphases},
		"detail":       traced.detail,
		"spans":        spans,
	}
	path := filepath.Join(o.spans, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	if err := writeDump(path, dump); err != nil {
		return nil, fmt.Errorf("writing span dump: %w", err)
	}
	fmt.Fprintf(log, "span dump: %s (%d spans)\n", path, len(spans))
	return res, nil
}

// setUp builds the workload's environment setups times and keeps the last
// one (the last two when a traced window follows).
func setUp(o options) ([]environment, []float64, error) {
	keep := 1
	if o.trace {
		keep = 2
	}
	var envs []environment
	var times []float64
	for i := 0; i < setups; i++ {
		start := time.Now()
		e, err := workloads[o.workload](o)
		if err != nil {
			for _, old := range envs {
				old.close()
			}
			return nil, nil, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		times = append(times, time.Since(start).Seconds())
		envs = append(envs, e)
		if len(envs) > keep {
			envs[0].close()
			envs = envs[1:]
		}
	}
	return envs, times, nil
}

// heapSampler tracks the peak live heap (bytes marked live by the last GC)
// while a window runs.
type heapSampler struct {
	stopCh chan struct{}
	done   sync.WaitGroup
	peak   uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopCh: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() {
		metrics.Read(sample)
		if sample[0].Value.Kind() == metrics.KindUint64 {
			h.peak = max(h.peak, sample[0].Value.Uint64())
		}
	}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stopCh:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in MiB.
func (h *heapSampler) stop() float64 {
	close(h.stopCh)
	h.done.Wait()
	return float64(h.peak) / (1 << 20)
}

func hostFacts() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}

func printPhases(w io.Writer, phases map[string]phaseCount, notes []string) {
	for _, name := range sortedKeys(phases) {
		p := phases[name]
		fmt.Fprintf(w, "  phase %-22s attempted %7d succeeded %7d failed %5d %v\n", name, p.Attempted, p.Succeeded, p.Failed, p.Reasons)
	}
	for _, n := range notes {
		fmt.Fprintln(w, "  failure:", n)
	}
}

func printDetail(w io.Writer, label string, detail map[string]any) {
	data, err := json.Marshal(detail)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "  %s: %s\n", label, data)
}

func printLayers(w io.Writer, stats map[string]*layerStat) {
	fmt.Fprintf(w, "  %-26s %8s %12s %12s %12s  %s\n", "span", "count", "total_ms", "self_ms", "med_self_us", "parents")
	for _, name := range sortedKeys(stats) {
		s := stats[name]
		fmt.Fprintf(w, "  %-26s %8d %12.3f %12.3f %12.2f  %v\n", name, s.Count, s.TotalMs, s.SelfMs, s.MedSelfUs, s.Parents)
	}
}
