package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 0.99, true}, // rank 989: samples 990..999 lie beyond it
		{999, 0.99, false},
		{100, 0.9, true},
		{99, 0.9, false},
		{20, 0.5, true},
		{19, 0.5, false},
		{0, 0.5, false},
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	for _, c := range []struct {
		n      int
		want   float64
		wantOK bool
	}{{20000, 0.999, true}, {1500, 0.99, true}, {999, 0.9, true}, {50, 0.5, true}, {10, 0, false}} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.wantOK {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.wantOK)
		}
	}

	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, unsorted
	}
	s := summarize(xs)
	if s.N != 1000 || s.P50 != 500.5 || s.P90 != 900 || s.P99 != 990 || s.P99Gap || s.TailP != 0.99 || s.Tail != 990 {
		t.Errorf("summarize(1..1000) = %+v", s)
	}
	if s := summarize(xs[:500]); !s.P99Gap || s.TailP != 0.9 {
		t.Errorf("500 samples must not support p99: %+v", s)
	}
}

// fakeClock advances only when the generator sleeps or a request runs.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }
func (c *fakeClock) sleepUntil(t time.Time) {
	if t.After(c.t) {
		c.t = t
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	start := time.Unix(0, 0)
	clk := &fakeClock{t: start}
	service := []time.Duration{1, 25, 1, 1, 1} // ms; request 1 stalls
	res := runOpenLoop(clk, start, 10*time.Millisecond, func(due time.Time) bool {
		return due.Sub(start) >= 50*time.Millisecond
	}, func(i int) {
		clk.t = clk.t.Add(service[i] * time.Millisecond)
	})
	// Request 2 is due at 20 ms but can only go at 35 ms: its latency counts
	// the 15 ms it waited, and request 3 still carries 6 ms of the stall.
	wantLat := []float64{1, 25, 16, 7, 1}
	wantLate := []float64{0, 0, 15, 6, 0}
	if got := millis(res.Latency); !reflect.DeepEqual(got, wantLat) {
		t.Errorf("latency = %v, want %v", got, wantLat)
	}
	if got := millis(res.Late); !reflect.DeepEqual(got, wantLate) {
		t.Errorf("lateness = %v, want %v", got, wantLate)
	}
}

func TestMixStreamIsSeeded(t *testing.T) {
	draw := func(seed uint64, client int) []requestKind {
		m := newMixStream(seed, client)
		out := make([]requestKind, 200)
		for i := range out {
			out[i] = m.next()
		}
		return out
	}
	a, b := draw(7, 0), draw(7, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different request streams")
	}
	if reflect.DeepEqual(a, draw(8, 0)) || reflect.DeepEqual(a, draw(7, 1)) {
		t.Error("different seeds or clients gave the same stream")
	}
	for d := 0; d+deckSize <= len(a); d += deckSize {
		var counts [numKinds]int
		for _, k := range a[d : d+deckSize] {
			counts[k]++
		}
		if counts != kindDeck {
			t.Fatalf("requests %d..%d have mix %v, want %v", d, d+deckSize, counts, kindDeck)
		}
	}
}

// The metric names are cited by later changes; renaming one is a change to
// the benchmark, made here and in BENCHMARK.json together.
func TestMetricNamesPinned(t *testing.T) {
	e2e := []string{"setup_s", "ops_per_s", "light_p50_ms", "heavy_p50_ms", "medape", "heap_peak_mb", "ok_ratio"}
	if got := names(endToEnd); !reflect.DeepEqual(got, e2e) {
		t.Errorf("end-to-end metrics = %v, want %v", got, e2e)
	}
	if len(perLayer) != 47 {
		t.Errorf("%d per-layer metrics, want 47", len(perLayer))
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Work     []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		code  []metricDef
		bench []struct{ Name, Unit string }
	}{{endToEnd, bench.EndToEnd}, {perLayer, bench.PerLayer}} {
		var got []metricDef
		for _, m := range c.bench {
			got = append(got, metricDef{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(got, c.code) {
			t.Errorf("BENCHMARK.json lists %v, the benchmark reports %v", got, c.code)
		}
	}
	if len(bench.Work) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bench.Work), len(workloads))
	}
	for _, w := range bench.Work {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not run by the benchmark", w.Name)
		}
	}
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name)
	}
	return out
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},  // overlaps a: 10..50 covered once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 40 - 10, 2: 25, 3: 20, 4: 30, 5: 5}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
}

func TestLedgerKeepsCountingAfterFailures(t *testing.T) {
	led := newLedger()
	led.ok("read.single")
	led.fail("read.single", failShed, "429")
	led.fail("update.step", failUnpublished, "no snapshot")
	led.ok("read.single")
	attempted, failed := led.totals()
	if attempted != 4 || failed != 2 || led.reason(failShed) != 1 || led.reason(failWrong) != 0 {
		t.Errorf("attempted %d failed %d sheds %d", attempted, failed, led.reason(failShed))
	}
	phases, _ := led.snapshot()
	if p := phases["read.single"]; p.Attempted != 3 || p.Succeeded != 2 || p.Failed != 1 {
		t.Errorf("read.single = %+v", p)
	}
}
