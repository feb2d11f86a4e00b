package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"time"

	"hsmodel/internal/core"
	"hsmodel/internal/genetic"
	"hsmodel/internal/hwspace"
	"hsmodel/internal/profile"
	"hsmodel/internal/regress"
	"hsmodel/internal/spmv"
	"hsmodel/internal/trace"
)

// paper_study: the paper's offline pipeline with no server, repeated for the
// window. One iteration profiles the seven SPEC2006 stand-ins (Collector),
// fits the three model families (Trainer.Train), scores held-out
// interpolation pairs (Fig. 7a) and answers what-if queries with the model,
// then runs the SpMV study on Table 4 matrices scaled 1/16: Study.Sample,
// TrainModels scored on validation points (Fig. 14) and model-guided Tune
// (Fig. 16). The study inputs are fixed, so its quality figures and its
// simulated-statistic digests repeat exactly; the seed picks the query
// architectures and the order the matrices are studied in.
const (
	studyShardLen   = 20_000
	studyShardPool  = 20
	studyPerApp     = 20
	studyHeldOut    = 10
	studySeed       = 1
	studyPop        = 16
	studyGens       = 5
	studyQueryCfgs  = 16
	spmvScale       = 16
	spmvTrainPoints = 100
	spmvValPoints   = 30
	spmvPop         = 12
	spmvGens        = 4
	spmvCandidates  = 50
)

// studyMatrices are the Table 4 matrices the study covers: a circuit matrix
// with no exploitable blocks and a 6-DOF FEM matrix.
var studyMatrices = []string{"bayer02", "olafu"}

// studyDigest sums simulated statistics of one iteration. A change that only
// speeds the simulators up leaves every field bit-identical.
type studyDigest struct {
	CPISum  uint64 `json:"cpi_sum_bits"`    // Σ CPI of the collected training profiles
	Cycles  uint64 `json:"cycles_sum_bits"` // Σ Cycles of the kernel probes
	DMisses uint64 `json:"dcache_misses"`   // Σ d-cache misses of the kernel probes
	IMisses uint64 `json:"icache_misses"`   // Σ i-cache misses of the kernel probes
}

// pinnedDigest is the digest of the study at this benchmark's inputs.
var pinnedDigest = studyDigest{
	CPISum:  4644592265095630815,
	Cycles:  4712837701601067008,
	DMisses: 479825,
	IMisses: 404,
}

type studyEnv struct {
	apps     []*trace.App
	heldOut  []core.Sample
	queryHWs []hwspace.Config
	order    []spmv.MatrixSpec
}

func setupPaperStudy(o options) (environment, error) {
	apps := trace.SPEC2006()
	col := &core.Collector{ShardLen: studyShardLen, ShardPool: studyShardPool}
	env := &studyEnv{
		apps:     apps,
		heldOut:  col.Collect(apps, studyHeldOut, studySeed^0xFACE),
		queryHWs: configPool(rand.New(rand.NewPCG(o.seed, 0xc0f3)), studyQueryCfgs),
	}
	r := rand.New(rand.NewPCG(o.seed, 0x0de4))
	for _, k := range r.Perm(len(studyMatrices)) {
		spec, err := spmv.ByName(studyMatrices[k])
		if err != nil {
			return nil, err
		}
		env.order = append(env.order, spec.Scaled(spmvScale))
	}
	return env, nil
}

func (e *studyEnv) close() {}

// iterResult is one study iteration's output.
type iterResult struct {
	ms          float64 // iteration time, less the forced collection before the queries
	sims        int
	simNs       int64 // time inside the simulators: Collect, Study.Sample and the kernel probes
	interp      float64
	spmvMedAPE  float64
	coord       float64
	digest      studyDigest
	queryMs     []float64
	train       []core.Sample
	fitMs       float64 // Trainer.Train
	genMs       float64 // generation time inside it (traced)
	accesses    uint64
	probeNs     int64
	conversions int
	kernels     int
	bcsrAllocs  []float64
	cycles      map[string]float64 // Σ kernel-probe cycles per matrix
}

func (e *studyEnv) window(o options, tr *tracer, led *ledger) (*windowOut, error) {
	var hooks *fitHooks
	if tr != nil {
		hooks = &fitHooks{tr: tr}
	}
	start := time.Now()
	deadline := start.Add(o.window())
	var iters []iterResult
	var totals gramTotals
	for len(iters) == 0 || time.Now().Before(deadline) {
		it, gram, err := e.iteration(tr, hooks, led)
		if err != nil {
			return nil, err
		}
		totals.add(gram)
		e.checkIteration(led, it, iters)
		iters = append(iters, it)
	}

	var ms, queries []float64
	var sims int
	var simNs int64
	for _, it := range iters {
		ms = append(ms, it.ms)
		queries = append(queries, it.queryMs...)
		sims += it.sims
		simNs += it.simNs
	}
	last := iters[len(iters)-1]
	out := &windowOut{
		e2e: map[string]float64{
			"ops_per_s":    float64(sims) / (float64(simNs) / 1e9),
			"light_p50_ms": median(queries),
			"heavy_p50_ms": median(ms),
			"medape":       last.interp,
		},
		layers: map[string]float64{},
		detail: map[string]any{
			"iterations": len(iters), "study_ms": summarize(ms), "query_ms": summarize(queries),
			"interp_medape": last.interp, "spmv_medape": last.spmvMedAPE, "coord_speedup": last.coord,
			"digest": last.digest,
		},
	}
	if tr != nil {
		e.fillLayers(tr, led, hooks, iters, totals, out)
	}
	return out, nil
}

// checkIteration compares an iteration's simulated-statistic digest with the
// pinned one, and its quality figures with the first iteration's: both must
// repeat exactly.
func (e *studyEnv) checkIteration(led *ledger, it iterResult, prev []iterResult) {
	if it.digest != pinnedDigest {
		led.fail("study.digest", failWrong, fmt.Sprintf("digest %+v, pinned %+v", it.digest, pinnedDigest))
	} else {
		led.ok("study.digest")
	}
	if len(prev) == 0 {
		return
	}
	p := prev[0]
	if !sameBits(it.interp, p.interp) || !sameBits(it.spmvMedAPE, p.spmvMedAPE) || !sameBits(it.coord, p.coord) {
		led.fail("study.repeat", failWrong, fmt.Sprintf("quality %v/%v/%v differs from %v/%v/%v",
			it.interp, it.spmvMedAPE, it.coord, p.interp, p.spmvMedAPE, p.coord))
	} else {
		led.ok("study.repeat")
	}
}

func (e *studyEnv) iteration(tr *tracer, hooks *fitHooks, led *ledger) (iterResult, regress.GramStats, error) {
	res := iterResult{cycles: map[string]float64{}}
	var gram regress.GramStats
	ctx := context.Background()
	start := time.Now()
	root := tr.begin("study", open{})
	defer root.end()

	sp := tr.begin("collector.collect", root)
	col := &core.Collector{ShardLen: studyShardLen, ShardPool: studyShardPool}
	simStart := time.Now()
	res.train = col.Collect(e.apps, studyPerApp, studySeed)
	res.simNs += int64(time.Since(simStart))
	sp.end()
	var cpi float64
	for _, s := range res.train {
		cpi += s.CPI
	}
	res.digest.CPISum = math.Float64bits(cpi)
	res.sims += len(res.train)

	sp = tr.begin("fit.train", root)
	t := core.NewTrainer(append([]core.Sample(nil), res.train...))
	t.ShardLen = studyShardLen
	t.Search = genetic.Params{PopulationSize: studyPop, Generations: studyGens, Seed: studySeed}
	t.Fitness.Seed = studySeed
	t.Families = core.DefaultFamilies()
	if hooks != nil {
		hooks.install(t)
		hooks.beginEpisode(sp)
	}
	fitStart := time.Now()
	err := t.Train(ctx)
	res.fitMs = float64(time.Since(fitStart)) / 1e6
	sp.end()
	if err != nil {
		return res, gram, fmt.Errorf("study training: %w", err)
	}
	if hooks != nil {
		res.genMs = hooks.endEpisode()
	}
	gram = t.FitPathStats()
	snap := t.Snapshot()

	sp = tr.begin("predict.interp", root)
	met, err := snap.EvaluateOn(e.heldOut)
	sp.end()
	if err != nil {
		return res, gram, err
	}
	res.interp = met.MedAPE
	// Queries start on a collected heap, so their tail measures answering
	// them rather than collecting the study's garbage. The collection is the
	// benchmark's, not the study's, so the iteration clock skips it.
	gcStart := time.Now()
	runtime.GC()
	gcPause := time.Since(gcStart)
	res.queryMs = e.answerQueries(tr, root, snap, res.train, led)

	var medapes, coords []float64
	for _, spec := range e.order {
		m, c, err := e.spmvStudy(ctx, tr, root, spec, &res)
		if err != nil {
			return res, gram, err
		}
		medapes, coords = append(medapes, m), append(coords, c)
	}
	res.spmvMedAPE, res.coord = median(medapes), median(coords)
	// Summed in the fixed matrix order, so the digest does not depend on
	// the order the seed studied the matrices in.
	var cycles float64
	for _, name := range studyMatrices {
		cycles += res.cycles[fmt.Sprintf("%s/%d", name, spmvScale)]
	}
	res.digest.Cycles = math.Float64bits(cycles)
	res.ms = float64(time.Since(start)-gcPause) / 1e6
	return res, gram, nil
}

// answerQueries answers what-if questions with the fitted model: for every
// profiled shard (training and held-out), a sweep predicting it on each
// query architecture with one PredictShard call per architecture. Each sweep
// is timed as one query. The same rows through PredictBatch must give the
// same bits.
func (e *studyEnv) answerQueries(tr *tracer, root open, snap *core.Snapshot, train []core.Sample, led *ledger) []float64 {
	shards, _ := distinctShards(append(append([]core.Sample(nil), train...), e.heldOut...))
	lat := make([]float64, 0, len(shards))
	got := make([]float64, 0, len(shards)*len(e.queryHWs))
	rows := make([][]float64, 0, cap(got))
	sp := tr.begin("predict.query", root)
	for _, s := range shards {
		t0 := time.Now()
		for _, hw := range e.queryHWs {
			v, err := snap.PredictShard(s.X, hw)
			if err != nil {
				led.fail("study.query", failError, err.Error())
				return lat
			}
			got = append(got, v)
		}
		lat = append(lat, float64(time.Since(t0))/1e6)
		for _, hw := range e.queryHWs {
			rows = append(rows, core.Sample{X: s.X, HW: hw}.Row())
		}
	}
	sp.end()
	batch := make([]float64, len(rows))
	sp = tr.begin("predict.batch", root)
	err := snap.PredictBatch(rows, batch)
	sp.end()
	for i := range got {
		if err == nil && !sameBits(got[i], batch[i]) {
			err = fmt.Errorf("query %d: scalar %v, batch %v", i, got[i], batch[i])
		}
	}
	if err != nil {
		led.fail("study.query", failWrong, err.Error())
	} else {
		led.ok("study.query")
	}

	byApp := map[string][]core.Sample{}
	for _, s := range e.heldOut {
		byApp[s.App] = append(byApp[s.App], s)
	}
	for _, a := range e.apps {
		xs := make([]profile.Characteristics, 0, len(byApp[a.Name]))
		for _, s := range byApp[a.Name] {
			xs = append(xs, s.X)
		}
		sp := tr.begin("predict.app", root)
		_, err := snap.PredictApplication(xs, hwspace.Baseline())
		sp.end()
		if err != nil {
			led.fail("study.query", failError, err.Error())
		}
	}
	return lat
}

// spmvStudy runs one matrix: generate it, convert all 64 block variants,
// sample the integrated SpMV-cache space, fit the performance and power
// models, tune with the model, and simulate the eight square variants on
// the baseline cache for the digest. It returns the performance model's
// validation MedAPE and the coordinated-tuning speedup.
func (e *studyEnv) spmvStudy(ctx context.Context, tr *tracer, root open, spec spmv.MatrixSpec, res *iterResult) (float64, float64, error) {
	mroot := tr.begin("spmv.matrix", root)
	defer mroot.end()
	sp := tr.begin("spmv.gen", mroot)
	s := spmv.NewStudy(spec)
	sp.end()

	var before, after runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	sp = tr.begin("spmv.bcsr", mroot)
	for r := 1; r <= spmv.MaxBlockDim; r++ {
		for c := 1; c <= spmv.MaxBlockDim; c++ {
			s.Blocked(r, c)
		}
	}
	sp.end()
	if tr != nil {
		runtime.ReadMemStats(&after)
		res.bcsrAllocs = append(res.bcsrAllocs, float64(after.Mallocs-before.Mallocs)/float64(spmv.MaxBlockDim*spmv.MaxBlockDim))
	}
	res.conversions += spmv.MaxBlockDim * spmv.MaxBlockDim

	sp = tr.begin("spmv.sample", mroot)
	simStart := time.Now()
	train := s.Sample(spmvTrainPoints, studySeed^uint64(0x140+spec.Index))
	val := s.Sample(spmvValPoints, studySeed^uint64(0x1400+spec.Index))
	res.simNs += int64(time.Since(simStart))
	sp.end()
	res.kernels += len(train) + len(val)
	res.sims += len(train) + len(val)

	sp = tr.begin("spmv.fit", mroot)
	models, err := spmv.TrainModels(ctx, spec.Name, train, spmv.TrainOptions{
		Search: genetic.Params{PopulationSize: spmvPop, Generations: spmvGens, Seed: studySeed ^ uint64(0x14AA+spec.Index)},
	})
	sp.end()
	if err != nil {
		return 0, 0, fmt.Errorf("spmv models for %s: %w", spec.Name, err)
	}
	medape := spmv.EvaluateDomainModel(models.Perf, val).MedAPE

	sp = tr.begin("spmv.tune", mroot)
	tuned := spmv.Tune(spmv.TuneOptions{Study: s, Models: &models, CacheCandidates: spmvCandidates, Seed: studySeed})
	sp.end()

	sp = tr.begin("spmv.kernel_probe", mroot)
	probeStart := time.Now()
	var cycles float64
	for k := 1; k <= spmv.MaxBlockDim; k++ {
		kr := spmv.SimulateKernel(s.Blocked(k, k), spmv.BaselineCache())
		cycles += kr.Cycles
		res.digest.DMisses += kr.DStats.Misses
		res.digest.IMisses += kr.IStats.Misses
		res.accesses += kr.DStats.Accesses + kr.IStats.Accesses
	}
	res.probeNs += int64(time.Since(probeStart))
	res.simNs += int64(time.Since(probeStart))
	sp.end()
	res.cycles[spec.Name] = cycles
	res.kernels += spmv.MaxBlockDim
	res.sims += spmv.MaxBlockDim
	return medape, tuned.CoordSpeedup(), nil
}

// fillLayers derives paper_study's per-layer figures.
func (e *studyEnv) fillLayers(tr *tracer, led *ledger, hooks *fitHooks, iters []iterResult, totals gramTotals, out *windowOut) {
	l := out.layers
	spans := tr.all()
	ms := func(name string) float64 { return median(durations(spans, name)) / 1e3 }
	last := iters[len(iters)-1]
	l["spmv.gen_ms"] = ms("spmv.gen")
	l["spmv.bcsr_ms"] = ms("spmv.bcsr")
	l["spmv.bcsr_count"] = float64(last.conversions)
	l["spmv.bcsr_allocs"] = median(last.bcsrAllocs)
	l["spmv.kernel_ms"] = ms("spmv.sample") / float64(spmvTrainPoints+spmvValPoints)
	l["spmv.kernels"] = float64(last.kernels)
	l["cache.accesses"] = float64(last.accesses)
	l["cache.maccess_per_s"] = float64(last.accesses) / float64(last.probeNs) * 1e3
	l["spmv.variant_reuse_ratio"] = float64(last.kernels) / float64(last.conversions)
	l["spmv.fit_ms"] = ms("spmv.fit")
	l["spmv.tune_ms"] = ms("spmv.tune")
	l["study.spmv_medape"] = last.spmvMedAPE
	l["study.coord_speedup"] = last.coord

	var q []float64
	for _, it := range iters {
		q = append(q, it.queryMs...)
	}
	l["predict.scalar_ns"] = median(q) * 1e6 / studyQueryCfgs
	l["predict.batch_ns_per_row"] = ms("predict.batch") * 1e6 / float64(len(q)/len(iters)*studyQueryCfgs)
	l["predict.app_ns_per_shard"] = ms("predict.app") * 1e6 / studyHeldOut

	hooks.fill(l, studyPop, studyGens, len(iters))
	totals.fill(l)
	fz, gram, err := fitProbe(tr, last.train)
	if err == nil {
		l["fit.featurize_ms"], l["fit.gram_build_ms"] = fz, gram
	}
	var sel []float64
	for _, it := range iters {
		sel = append(sel, it.fitMs-it.genMs-fz-gram)
	}
	l["fit.select_ms"] = median(sel)
	substrateProbe(tr, led, e.apps, last.train, studyShardLen, 6, l)
}
