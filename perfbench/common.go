package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hsmodel/internal/core"
	"hsmodel/internal/cpu"
	"hsmodel/internal/genetic"
	"hsmodel/internal/hwspace"
	"hsmodel/internal/isa"
	"hsmodel/internal/profile"
	"hsmodel/internal/regress"
	"hsmodel/internal/serve"
	"hsmodel/internal/trace"
)

// The serve workloads' bootstrap model, sized like hsload's bootstrap: the
// first three SPEC2006 stand-ins, 40 profiles each at 20k-instruction
// shards, and a small search. Fixed seeds keep the model, and so every
// quality figure, identical across workload seeds.
const (
	bootApps     = 3
	bootSamples  = 40
	bootHeldOut  = 14
	bootSeed     = 7
	bootShardLen = 20_000
	bootPop      = 8
	bootGens     = 2
)

// bootstrap is a collected profile set and the model trained on it.
type bootstrap struct {
	apps    []*trace.App
	samples []core.Sample
	trainer *core.Trainer
	medape  float64 // the trained model's MedAPE on held-out pairs
}

func trainBootstrap() (*bootstrap, error) {
	apps := trace.SPEC2006()[:bootApps]
	col := &core.Collector{ShardLen: bootShardLen}
	samples := col.Collect(apps, bootSamples, bootSeed)
	heldOut := col.Collect(apps, bootHeldOut, bootSeed^0xFACE)
	tr := core.NewTrainer(append([]core.Sample(nil), samples...))
	tr.ShardLen = bootShardLen
	tr.Search = genetic.Params{PopulationSize: bootPop, Generations: bootGens, Seed: bootSeed}
	tr.Fitness.Seed = bootSeed
	if err := tr.Train(context.Background()); err != nil {
		return nil, fmt.Errorf("bootstrap training: %w", err)
	}
	met, err := tr.Snapshot().EvaluateOn(heldOut)
	if err != nil {
		return nil, err
	}
	return &bootstrap{apps: apps, samples: samples, trainer: tr, medape: met.MedAPE}, nil
}

// fleet is a serve.Server listening on a loopback port.
type fleet struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan struct{}
}

func bootServer(cfg serve.Config) (*fleet, error) {
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	f := &fleet{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second},
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(f.done)
		f.hs.Serve(ln)
	}()
	return f, nil
}

// close stops the listener, waits for the serving goroutine, and drains the
// server.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	f.hs.Shutdown(ctx)
	<-f.done
	f.srv.Close()
}

// httpClient is one client connection to the fleet.
type httpClient struct {
	c    *http.Client
	base string
}

func newHTTPClient(base string) *httpClient {
	return &httpClient{
		c: &http.Client{
			Timeout:   5 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		},
		base: base,
	}
}

func (h *httpClient) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, h.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (h *httpClient) close() { h.c.CloseIdleConnections() }

// failReason classifies a finished HTTP exchange; "" means a 200.
func failReason(status int, err error) string {
	var ne net.Error
	switch {
	case err != nil && errors.As(err, &ne) && ne.Timeout():
		return failTimeout
	case err != nil:
		return failError
	case status == http.StatusTooManyRequests:
		return failShed
	case status == http.StatusGatewayTimeout:
		return failTimeout
	case status != http.StatusOK:
		return failError
	}
	return ""
}

// configPool draws n architectures uniformly from the Table 2 space.
func configPool(r *rand.Rand, n int) []hwspace.Config {
	counts := hwspace.LevelCounts()
	out := make([]hwspace.Config, n)
	for i := range out {
		var ix hwspace.Indices
		for p := range ix {
			ix[p] = r.IntN(counts[p])
		}
		out[i] = hwspace.FromIndices(ix)
	}
	return out
}

// sameBits reports whether two answers are bit-for-bit equal.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// allocsPer measures heap allocations per call of f over n calls. Call it
// only while no other goroutine allocates.
func allocsPer(n int, f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// distinctShards returns the samples whose (app, shard) is seen first, in
// order, and the number of samples per distinct shard trace.
func distinctShards(samples []core.Sample) ([]core.Sample, float64) {
	type key struct {
		app   string
		shard int
	}
	seen := map[key]bool{}
	var out []core.Sample
	for _, s := range samples {
		k := key{s.App, s.Shard}
		if !seen[k] {
			seen[k] = true
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return nil, 0
	}
	return out, float64(len(samples)) / float64(len(out))
}

// substrateProbe replays the first n distinct shards of samples through the
// substrate layers one call at a time: trace generation (isa.Collect of the
// shard stream), portable profiling (profile.Stream), and CPU simulation
// (cpu.Simulator.Run). Each replay must reproduce the collector's profile
// and CPI bit for bit. It fills the trace/profile/cpu per-layer figures.
func substrateProbe(tr *tracer, led *ledger, apps []*trace.App, samples []core.Sample, shardLen, n int, layers map[string]float64) {
	byName := map[string]*trace.App{}
	for _, a := range apps {
		byName[a.Name] = a
	}
	first, share := distinctShards(samples)
	layers["collector.share_ratio"] = share
	var genMs, profMs, cpuMs []float64
	var insts, genNs, profNs, cpuNs float64
	for _, s := range first[:min(n, len(first))] {
		app := byName[s.App]
		if app == nil {
			continue
		}
		root := tr.begin("probe.substrate", open{})
		sp := tr.begin("trace.gen", root)
		start := time.Now()
		stream := isa.Collect(app.ShardStream(s.Shard, shardLen), 0)
		d := time.Since(start)
		sp.end()
		genMs, genNs = append(genMs, float64(d)/1e6), genNs+float64(d)

		sp = tr.begin("profile", root)
		start = time.Now()
		p := profile.Stream(app.ShardStream(s.Shard, shardLen), app.Name, s.Shard)
		d = time.Since(start)
		sp.end()
		profMs, profNs = append(profMs, float64(d)/1e6), profNs+float64(d)

		sp = tr.begin("cpu.sim", root)
		start = time.Now()
		res := cpu.New(s.HW).Run(&isa.SliceStream{Insts: stream})
		d = time.Since(start)
		sp.end()
		cpuMs, cpuNs = append(cpuMs, float64(d)/1e6), cpuNs+float64(d)
		root.end()

		insts += float64(len(stream))
		if p.X != s.X || !sameBits(res.CPI(), s.CPI) {
			led.fail("probe.substrate", failWrong, fmt.Sprintf("%s/%d does not reproduce the collector's profile and CPI", s.App, s.Shard))
		} else {
			led.ok("probe.substrate")
		}
	}
	if len(genMs) == 0 {
		return
	}
	layers["trace.gen_ms"] = median(genMs)
	layers["trace.minst_per_s"] = insts / genNs * 1e3
	layers["profile.ms"] = median(profMs)
	layers["profile.minst_per_s"] = insts / profNs * 1e3
	layers["cpu.sim_ms"] = median(cpuMs)
	layers["cpu.minst_per_s"] = insts / cpuNs * 1e3
}

// fitProbe times the two evaluator builds a training episode starts with —
// regress.NewFeaturizer and regress.NewGramCache — on the dataset of
// samples (with unit weights in place of the episode's split weights).
func fitProbe(tr *tracer, samples []core.Sample) (featurizeMs, gramMs float64, err error) {
	parent := tr.begin("probe.fit", open{})
	defer parent.end()
	ds := core.ToDataset(samples)
	sp := tr.begin("fit.featurize", parent)
	start := time.Now()
	fz, err := regress.NewFeaturizer(ds, true)
	featurizeMs = float64(time.Since(start)) / 1e6
	sp.end()
	if err != nil {
		return 0, 0, err
	}
	sp = tr.begin("fit.gram_build", parent)
	start = time.Now()
	_, err = regress.NewGramCache(fz, regress.Options{LogResponse: true})
	gramMs = float64(time.Since(start)) / 1e6
	sp.end()
	return featurizeMs, gramMs, err
}

// fitHooks observes training episodes through the Trainer's public seams:
// Search.OnGeneration marks generation boundaries and WrapEvaluator counts
// and times fitness evaluations (the search memo calls it on misses only).
type fitHooks struct {
	tr *tracer

	mu       sync.Mutex
	episode  open
	lastGen  time.Time
	genMs    []float64
	stepGens float64 // generation time inside the current episode

	evals  atomic.Int64
	evalNs atomic.Int64
}

func (h *fitHooks) install(t *core.Trainer) {
	t.Search.OnGeneration = h.onGeneration
	t.WrapEvaluator = func(ev genetic.Evaluator) genetic.Evaluator {
		return genetic.EvaluatorFunc(func(spec regress.Spec) float64 {
			start := time.Now()
			f := ev.Fitness(spec)
			h.evalNs.Add(int64(time.Since(start)))
			h.evals.Add(1)
			return f
		})
	}
}

// beginEpisode attributes the generations that follow to episode.
func (h *fitHooks) beginEpisode(episode open) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.episode, h.lastGen, h.stepGens = episode, time.Now(), 0
}

// endEpisode returns the generation time spent since beginEpisode.
func (h *fitHooks) endEpisode() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stepGens
}

// onGeneration records the time since the previous generation of the same
// search; generation 0 also carries the evaluator build, so it is skipped.
func (h *fitHooks) onGeneration(gs genetic.GenStats) {
	now := time.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	if gs.Gen > 0 {
		h.tr.record("fit.generation", h.episode, h.lastGen, now)
		ms := float64(now.Sub(h.lastGen)) / 1e6
		h.genMs = append(h.genMs, ms)
		h.stepGens += ms
	}
	h.lastGen = now
}

// fill writes the hook-derived fit figures; searches is the number of
// population x generations budgets the evaluations ran against.
func (h *fitHooks) fill(layers map[string]float64, pop, gens, searches int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	evals := h.evals.Load()
	layers["fit.generation_ms"] = median(h.genMs)
	layers["fit.evals"] = float64(evals)
	if evals > 0 {
		layers["fit.eval_us"] = float64(h.evalNs.Load()) / float64(evals) / 1e3
	}
	if budget := pop * gens * searches; budget > 0 {
		layers["fit.memo_miss_ratio"] = float64(evals) / float64(budget)
	}
}

// gramTotals accumulates FitPathStats across episodes.
type gramTotals struct{ fits, qr, hits, misses uint64 }

func (g *gramTotals) add(st regress.GramStats) {
	g.fits += st.GramFits
	g.qr += st.QRFallbacks
	g.hits += st.EntryHits
	g.misses += st.EntryMisses
}

func (g *gramTotals) fill(layers map[string]float64) {
	if n := g.fits + g.qr; n > 0 {
		layers["fit.gram_share"] = float64(g.fits) / float64(n)
	}
	if n := g.hits + g.misses; n > 0 {
		layers["fit.gram_entry_hit_ratio"] = float64(g.hits) / float64(n)
	}
}

// spansByReq groups span durations (microseconds) by request id and name,
// and returns each request's root span name.
func spansByReq(spans []span) (map[int64]map[string]float64, map[int64]string) {
	byReq := map[int64]map[string]float64{}
	roots := map[int64]string{}
	for _, s := range spans {
		m := byReq[s.Req]
		if m == nil {
			m = map[string]float64{}
			byReq[s.Req] = m
		}
		m[s.Name] += float64(s.dur()) / 1e3
		if s.Parent == 0 {
			roots[s.Req] = s.Name
		}
	}
	return byReq, roots
}

// medianOver returns the median of f over the requests whose root span is
// one of rootNames and for which f reports a value.
func medianOver(byReq map[int64]map[string]float64, roots map[int64]string, rootNames []string, f func(m map[string]float64) (float64, bool)) float64 {
	want := map[string]bool{}
	for _, n := range rootNames {
		want[n] = true
	}
	var vals []float64
	for req, m := range byReq {
		if !want[roots[req]] {
			continue
		}
		if v, ok := f(m); ok {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return 0
	}
	return median(vals)
}

// has returns a median selector for the span named name, scaled by k.
func has(name string, k float64) func(m map[string]float64) (float64, bool) {
	return func(m map[string]float64) (float64, bool) {
		v, ok := m[name]
		return v * k, ok
	}
}

// diff returns a median selector for span a minus span b, both present.
func diff(a, b string) func(m map[string]float64) (float64, bool) {
	return func(m map[string]float64) (float64, bool) {
		va, oka := m[a]
		vb, okb := m[b]
		return va - vb, oka && okb
	}
}
