package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"hsmodel/internal/core"
	"hsmodel/internal/hwspace"
	"hsmodel/internal/profile"
	"hsmodel/internal/registry"
	"hsmodel/internal/regress"
	"hsmodel/internal/serve"
	"hsmodel/internal/trace"
	"hsmodel/pkg/hsmodel"
)

// serve_update: one writer runs the §3.3 update protocol over a fleet of
// family-selection entries while one reader sends single predicts open-loop.
// The writer's script is fixed by the window length: one episode due every
// stepEvery, so every run of a given length does the same fit work and
// the reader sees the same share of time with a fit running.
//
// No record of real update or read traffic exists, so stepEvery and readRate
// are assumptions, set from what this workload measures on an idle system.
// An episode takes about 80 ms at the median and 200 ms at p90; stepEvery is
// about twice that p90, so an episode rarely runs into the next one and the
// reader sees both fit-running and idle time. One connection answers a single
// read in about 3.2 ms, so it could carry some 310 reads/s; readRate is about
// two thirds of that, so an idle server keeps up with room to spare and any
// backlog the reader builds comes from the fit work beside it.
const (
	updEntries    = 6                      // more than the default 4 evaluator caches (MaxEvalCaches)
	stepEvery     = 400 * time.Millisecond // the writer starts an episode this often (or at once, if late)
	updChunk      = 20                     // fresh profiles per episode
	updHeldOut    = 6                      // held-out profiles per software variant
	updPop        = 64
	updGens       = 12
	updShardPool  = 10
	readRate      = 200 // reader requests per second
	pollInterval  = 2 * time.Millisecond
	publishWithin = 20 * time.Second
)

var updFamilies = []string{"spline", "residual", "dal"}

type updateEnv struct {
	boot    *bootstrap
	fl      *fleet
	ids     []string        // family-selection entries, in writer order
	chunks  [][]core.Sample // one chunk of fresh profiles per software variant
	heldOut []core.Sample   // held-out variant pairs for update quality
	shards  []core.Sample
}

func setupServeUpdate(o options) (environment, error) {
	boot, err := trainBootstrap()
	if err != nil {
		return nil, err
	}
	// The software variants of §4.4 (-O1/-O3, inputs v1-v3) of the first and
	// third bootstrap applications. Each variant is new software with its
	// own application id.
	var variants []*trace.App
	for _, a := range []*trace.App{boot.apps[0], boot.apps[2]} {
		variants = append(variants, trace.Variants(a)...)
	}
	col := &core.Collector{ShardLen: bootShardLen, ShardPool: updShardPool}
	pool := col.Collect(variants, updChunk, bootSeed^0x0bd)
	held := col.Collect(variants, updHeldOut, bootSeed^0x0bd^0xFACE)
	for _, ss := range [][]core.Sample{pool, held} {
		for i := range ss {
			ss[i].AppID += bootApps
		}
	}
	env := &updateEnv{boot: boot, heldOut: held}
	for v := range variants {
		env.chunks = append(env.chunks, pool[v*updChunk:(v+1)*updChunk])
	}
	env.shards, _ = distinctShards(boot.samples)

	env.fl, err = bootServer(serve.Config{Trainer: boot.trainer, RegistrySeed: 1})
	if err != nil {
		return nil, err
	}
	for i := 0; i < updEntries; i++ {
		id := fmt.Sprintf("fam-%d", i)
		e, err := env.fl.srv.Registry().Register(registry.Spec{
			ID: id, Families: updFamilies, Seed: uint64(i + 1), ShardLen: bootShardLen,
			Population: updPop, Generations: updGens,
		})
		if err != nil {
			env.fl.close()
			return nil, err
		}
		// One search worker: the fit shares the host with serving instead of
		// taking every core, the way an operator keeps reads answered.
		e.Trainer().Search.Workers = 1
		e.Trainer().AddSamples(append([]core.Sample(nil), boot.samples...))
		e.Trainer().Adopt(boot.trainer.Snapshot())
		env.ids = append(env.ids, id)
	}
	return env, nil
}

func (e *updateEnv) close() { e.fl.close() }

func (e *updateEnv) entry(id string) *registry.Entry {
	ent, _ := e.fl.srv.Registry().Get(id)
	return ent
}

// stepRecord is one update episode as the writer saw it.
type stepRecord struct {
	ms      float64 // samples POST sent -> new snapshot visible
	genMs   float64 // generation time inside the episode (traced)
	coldEvl bool    // the entry's evaluator cache was released before it
	gram    regress.GramStats
}

func (e *updateEnv) window(o options, tr *tracer, led *ledger) (*windowOut, error) {
	var hooks *fitHooks
	if tr != nil {
		hooks = &fitHooks{tr: tr}
		for _, id := range e.ids {
			hooks.install(e.entry(id).Trainer())
		}
	}
	bodies := make([][]byte, len(e.chunks))
	for i, ch := range e.chunks {
		req := hsmodel.SamplesRequest{Update: true}
		for _, s := range ch {
			req.Samples = append(req.Samples, hsmodel.SampleToWire(s))
		}
		var err error
		if bodies[i], err = json.Marshal(req); err != nil {
			return nil, err
		}
	}

	start := time.Now()
	deadline := start.Add(o.window())
	var steps []stepRecord
	var writerElapsed time.Duration
	var writerDone sync.WaitGroup
	writerDone.Add(1)
	finished := make(chan struct{})
	go func() {
		defer writerDone.Done()
		defer close(finished)
		client := newHTTPClient(e.fl.base)
		defer client.close()
		for k := 0; k < stepsPerWindow(o); k++ {
			wallClock{}.sleepUntil(start.Add(time.Duration(k) * stepEvery))
			// Entry k%updEntries gets its episodes' chunks in turn, so no
			// entry sees the same profiles twice within a window.
			chunk := (k%updEntries + k/updEntries) % len(bodies)
			if rec, ok := e.step(tr, hooks, led, client, k, bodies[chunk]); ok {
				steps = append(steps, rec)
			}
		}
		writerElapsed = time.Since(start)
	}()

	// The reader runs until both the window and the writer's script are over.
	configs := configPool(rand.New(rand.NewPCG(o.seed, 0xc0f2)), numConfigs)
	m := newMixStream(o.seed, 7)
	type target struct {
		id string
		s  core.Sample
		hw hwspace.Config
	}
	targets := make([]target, ringSize)
	ids := append([]string{hsmodel.DefaultModelID}, e.ids...)
	for i := range targets {
		targets[i] = target{ids[m.intn(len(ids))], e.shards[m.intn(len(e.shards))], configs[m.intn(len(configs))]}
	}
	reader := newHTTPClient(e.fl.base)
	answered := 0
	ol := runOpenLoop(wallClock{}, start, time.Second/readRate, func(due time.Time) bool {
		select {
		case <-finished:
			return !due.Before(deadline)
		default:
			return false
		}
	}, func(i int) {
		t := targets[i%len(targets)]
		ent := e.entry(t.id)
		before := ent.Trainer().Snapshot()
		body, _ := json.Marshal(wireRequest(t.s.X, t.hw))
		root := tr.begin("request.single", open{})
		t0 := time.Now()
		status, resp, err := reader.do("POST", "/v2/models/"+t.id+"/predict", body)
		tr.record("serve.socket", root, t0, time.Now())
		after := ent.Trainer().Snapshot()
		if reason := failReason(status, err); reason != "" {
			led.fail("read.single", reason, fmt.Sprintf("status %d %v %s", status, err, resp))
		} else if err := checkEither(resp, t.s, t.hw, before, after); err != nil {
			led.fail("read.single", failWrong, err.Error())
		} else {
			led.ok("read.single")
			answered++
		}
		if tr != nil && i%probeEvery == 0 {
			e.probeRead(tr, root, t.s, t.hw, led)
		}
		root.end()
	})
	readerElapsed := time.Since(start)
	reader.close()
	writerDone.Wait()
	elapsed := time.Since(start)

	var upd []float64
	for _, s := range steps {
		upd = append(upd, s.ms)
	}
	lat, late := millis(ol.Latency), millis(ol.Late)
	var q []float64
	for _, id := range e.ids {
		met, err := e.entry(id).Trainer().Snapshot().EvaluateOn(e.heldOut)
		if err != nil {
			return nil, err
		}
		q = append(q, met.MedAPE)
	}
	out := &windowOut{
		e2e: map[string]float64{
			"ops_per_s":    float64(answered) / readerElapsed.Seconds(),
			"light_p50_ms": median(lat),
			"heavy_p50_ms": median(upd),
			"medape":       sum(q) / float64(len(q)),
		},
		layers: map[string]float64{},
		detail: map[string]any{
			"elapsed_s": elapsed.Seconds(), "writer_s": writerElapsed.Seconds(), "published": len(steps),
			"update_ms": summarize(upd), "read_ms": summarize(lat), "late_ms": summarize(late),
			"entry_medape": q,
		},
	}
	if tr != nil {
		e.fillLayers(tr, led, hooks, steps, late, out)
	}
	return out, nil
}

// stepsPerWindow is the length of the writer's script.
func stepsPerWindow(o options) int { return max(1, int(o.window()/stepEvery)) }

// step runs one update episode: post a chunk of fresh profiles with
// update:true to the entry, then poll the entry's model until a new snapshot
// is published. The published snapshot must have trained on every posted row.
func (e *updateEnv) step(tr *tracer, hooks *fitHooks, led *ledger, client *httpClient, k int, body []byte) (stepRecord, bool) {
	id := e.ids[k%len(e.ids)]
	rec := stepRecord{coldEvl: !e.entry(id).Trainer().EvalCacheActive()}
	before, err := modelInfo(client, id)
	if err != nil {
		led.fail("update.step", failError, err.Error())
		return rec, false
	}
	root := tr.begin("update.step", open{})
	defer root.end()
	if hooks != nil {
		hooks.beginEpisode(root)
	}
	t0 := time.Now()
	sp := tr.begin("serve.samples_post", root)
	status, resp, err := client.do("POST", "/v2/models/"+id+"/samples", body)
	sp.end()
	if reason := failReason(status, err); reason != "" {
		led.fail("update.step", reason, fmt.Sprintf("status %d %v %s", status, err, resp))
		return rec, false
	}
	var ack hsmodel.SamplesResponse
	if err := json.Unmarshal(resp, &ack); err != nil || !ack.UpdateStarted || ack.Accepted != updChunk {
		led.fail("update.step", failWrong, fmt.Sprintf("samples ack %s (%v)", resp, err))
		return rec, false
	}
	sp = tr.begin("update.poll", root)
	var info hsmodel.ModelInfo
	for {
		info, err = modelInfo(client, id)
		if err == nil && info.SnapshotVersion > before.SnapshotVersion {
			break
		}
		if time.Since(t0) > publishWithin {
			sp.end()
			led.fail("update.step", failUnpublished, fmt.Sprintf("%s: no new snapshot within %v (%v)", id, publishWithin, err))
			return rec, false
		}
		time.Sleep(pollInterval)
	}
	sp.end()
	rec.ms = float64(time.Since(t0)) / 1e6
	rec.gram = e.entry(id).Trainer().FitPathStats()
	if hooks != nil {
		rec.genMs = hooks.endEpisode()
		dsp := tr.begin("serve.samples_decode", root)
		var req hsmodel.SamplesRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err := dec.Decode(&req)
		dsp.end()
		if err != nil {
			led.fail("probe.decode", failError, err.Error())
		}
	}
	if info.TrainedRows != before.TotalSamples+updChunk {
		led.fail("update.step", failWrong, fmt.Sprintf("%s trained on %d rows, want %d", id, info.TrainedRows, before.TotalSamples+updChunk))
		return rec, false
	}
	led.ok("update.step")
	return rec, true
}

func modelInfo(client *httpClient, id string) (hsmodel.ModelInfo, error) {
	var info hsmodel.ModelInfo
	status, body, err := client.do("GET", "/v2/models/"+id+"/model", nil)
	if reason := failReason(status, err); reason != "" {
		return info, fmt.Errorf("model info: %s: status %d %v", reason, status, err)
	}
	return info, json.Unmarshal(body, &info)
}

// checkEither accepts an answer equal, bit for bit, to the prediction of the
// snapshot served before the request or the one served after it.
func checkEither(body []byte, s core.Sample, hw hwspace.Config, before, after *core.Snapshot) error {
	got, err := answers(kindSingle, body)
	if err != nil {
		return err
	}
	for _, snap := range []*core.Snapshot{before, after} {
		want, err := snap.PredictShard(s.X, hw)
		if err == nil && sameBits(got[0], want) {
			return nil
		}
	}
	return fmt.Errorf("served %v matches neither the snapshot before nor after the request", got[0])
}

// probeRead replays a read through the layers on the default entry, whose
// snapshot the writer never replaces.
func (e *updateEnv) probeRead(tr *tracer, root open, s core.Sample, hw hwspace.Config, led *ledger) {
	want, err := e.boot.trainer.Snapshot().PredictShard(s.X, hw)
	if err != nil {
		led.fail("probe.predict", failError, err.Error())
		return
	}
	body, _ := json.Marshal(wireRequest(s.X, hw))
	r := &readReq{kind: kindSingle, addr: hsmodel.DefaultModelID, path: "/v1/predict", body: body,
		want: []float64{want}, rows: 1, xs: []profile.Characteristics{s.X}, hws: []hwspace.Config{hw}}
	probeLayers(e.fl, tr, root, r, led)
}

// fillLayers derives serve_update's per-layer figures.
func (e *updateEnv) fillLayers(tr *tracer, led *ledger, hooks *fitHooks, steps []stepRecord, late []float64, out *windowOut) {
	l := out.layers
	byReq, roots := spansByReq(tr.all())
	single := []string{"request.single"}
	l["serve.socket_us"] = medianOver(byReq, roots, single, diff("serve.socket", "serve.handler"))
	l["serve.handler_us"] = medianOver(byReq, roots, single, has("serve.handler", 1))
	l["serve.decode_us"] = medianOver(byReq, roots, single, has("serve.decode", 1))
	l["serve.encode_us"] = medianOver(byReq, roots, single, has("serve.encode", 1))
	l["serve.samples_decode_us"] = medianOver(byReq, roots, []string{"update.step"}, has("serve.samples_decode", 1))
	l["registry.resolve_ns"] = medianOver(byReq, roots, single, has("registry.resolve", 1e3/resolveReps))
	l["batcher.wait_us"] = medianOver(byReq, roots, single, diff("batcher.submit", "predict.scalar"))
	l["predict.scalar_ns"] = medianOver(byReq, roots, single, has("predict.scalar", 1e3))
	l["batcher.items_per_flush"] = e.fl.srv.BatchMean()
	l["registry.sheds"] = float64(led.reason(failShed))
	var cold float64
	for _, s := range steps {
		if s.coldEvl {
			cold++
		}
	}
	l["registry.evalcache_misses"] = cold
	l["update.read_late_ms"] = percentile(late, 0.99)
	hooks.fill(l, updPop, updGens, len(steps))

	var totals gramTotals
	for _, s := range steps {
		totals.add(s.gram)
	}
	totals.fill(l)
	var fz, gram []float64
	for _, id := range e.ids {
		if f, g, err := fitProbe(tr, e.entry(id).Trainer().Samples()); err == nil {
			fz, gram = append(fz, f), append(gram, g)
		}
	}
	l["fit.featurize_ms"], l["fit.gram_build_ms"] = median(fz), median(gram)
	var sel []float64
	for _, s := range steps {
		sel = append(sel, s.ms-s.genMs-l["fit.featurize_ms"]-l["fit.gram_build_ms"])
	}
	l["fit.select_ms"] = median(sel)
	substrateProbe(tr, led, e.boot.apps, e.boot.samples, bootShardLen, 6, l)
}
