// Command hsserve is the HTTP prediction service: it serves single-shard and
// whole-application CPI predictions from a trained snapshot, coalesces
// concurrent predictions into shared model passes, absorbs new profiles into
// the trainer's store, and exposes Prometheus metrics — the serving half of
// the paper's always-available update protocol.
//
//	hsserve -model model.json                   serve a persisted snapshot
//	hsserve -bootstrap -samples 40 -apps 3      train in-process, then serve
//	hsserve -models fleet.json                  multi-model registry from a manifest
//	hsserve -lifecycle -bootstrap               continuous learning on /v1/samples
//	hsserve -selfcheck                          one-process smoke test (CI)
//	hsserve -driftcheck                         scripted drift episode smoke test (CI)
//	hsserve -registrycheck                      multi-model registry smoke test (CI)
//
// SIGHUP hot-reloads the snapshot from -model without dropping requests;
// SIGINT/SIGTERM shut down gracefully, draining in-flight batches.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"hsmodel/internal/faultinject"
	"hsmodel/internal/serve"
	"hsmodel/internal/trace"
	"hsmodel/pkg/hsmodel"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	modelPath := flag.String("model", "", "snapshot file to serve (reloaded on SIGHUP)")
	bootstrap := flag.Bool("bootstrap", false, "collect samples and train a model before serving")
	samples := flag.Int("samples", 40, "bootstrap: (shard, architecture) samples per application")
	apps := flag.Int("apps", 3, "bootstrap: number of SPEC2006 applications to profile")
	pop := flag.Int("pop", 24, "bootstrap: genetic population size")
	gens := flag.Int("gens", 8, "bootstrap: genetic generations")
	seed := flag.Uint64("seed", 1, "bootstrap: random seed")
	shardLen := flag.Int("shardlen", 50_000, "bootstrap: shard length in instructions")
	maxBatch := flag.Int("max-batch", 32, "predictions coalesced into one model pass")
	maxWait := flag.Duration("max-wait", 2*time.Millisecond, "batcher wait to fill a batch")
	shards := flag.Int("shards", 0, "batcher queue+worker shards (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 5*time.Second, "per-request timeout")
	selfcheck := flag.Bool("selfcheck", false, "bootstrap a tiny model, exercise the API over loopback, exit")
	lifecycleOn := flag.Bool("lifecycle", false, "run the continuous-learning control loop on /v1/samples (drift detection, canary-gated retrains)")
	driftThreshold := flag.Float64("drift-threshold", 0, "lifecycle: accumulated excess error (CUSUM mass) that trips the drift detector (0 = default)")
	minProfiles := flag.Int("min-profiles", 0, "lifecycle: fresh post-drift profiles required before a shadow retrain (0 = default)")
	canaryTolerance := flag.Float64("canary-tolerance", 0, "lifecycle: relative slack a candidate gets on the canary set before promotion (0 = default)")
	driftcheck := flag.Bool("driftcheck", false, "scripted drift episode over loopback: assert one promotion and one rollback, exit")
	modelsPath := flag.String("models", "", "multi-model manifest (JSON, wire Manifest schema): its entries are registered at boot and the file is rewritten after every successful /v2/models register/unregister")
	queueBound := flag.Int("queue-bound", 0, "shed predictions registry-wide (429 + Retry-After) once aggregate queued predictions across all models reach this (0 = no aggregate bound)")
	registrycheck := flag.Bool("registrycheck", false, "three-entry registry over loopback: fan one profile stream, retrain every entry, assert v1/v2 parity and per-model metrics, exit")
	flag.Parse()

	logger := log.New(os.Stderr, "hsserve: ", log.LstdFlags)
	if *selfcheck {
		if err := runSelfcheck(logger); err != nil {
			logger.Fatalf("selfcheck FAILED: %v", err)
		}
		logger.Println("selfcheck passed")
		return
	}
	if *driftcheck {
		if err := runDriftCheck(logger); err != nil {
			logger.Fatalf("driftcheck FAILED: %v", err)
		}
		logger.Println("driftcheck passed")
		return
	}
	if *registrycheck {
		if err := runRegistryCheck(logger); err != nil {
			logger.Fatalf("registrycheck FAILED: %v", err)
		}
		logger.Println("registrycheck passed")
		return
	}

	tr := hsmodel.New(nil, hsmodel.WithSeed(*seed), hsmodel.WithShardLen(*shardLen))
	if *bootstrap {
		if err := bootstrapTrain(tr, *apps, *samples, *pop, *gens, *seed, *shardLen, logger); err != nil {
			logger.Fatal(err)
		}
	}

	scfg := serve.Config{
		Trainer:        tr,
		MaxBatch:       *maxBatch,
		MaxWait:        *maxWait,
		Shards:         *shards,
		RequestTimeout: *timeout,
		ModelPath:      *modelPath,
		ManifestPath:   *modelsPath,
		QueueBound:     *queueBound,
		Logger:         logger,
	}
	if *lifecycleOn {
		lc := hsmodel.LifecycleConfig{
			MinProfiles:     *minProfiles,
			CanaryTolerance: *canaryTolerance,
			Seed:            *seed,
		}
		lc.Drift.Threshold = *driftThreshold
		scfg.Lifecycle = &lc
		logger.Println("lifecycle: continuous learning enabled on /v1/samples")
	}
	srv, err := serve.New(scfg)
	if err != nil {
		logger.Fatal(err)
	}
	if *modelPath != "" {
		// Initial load uses the same guarded path as SIGHUP: a bad file is
		// reported and the server starts (untrained unless bootstrapped),
		// ready for a corrected file and another SIGHUP.
		if err := srv.Reload(); err != nil && !*bootstrap {
			logger.Printf("serving without a model until reload succeeds: %v", err)
		}
	}
	if !tr.Snapshot().Trained() {
		logger.Println("no model yet: predictions answer 503 until /v1/samples+update, -model reload, or -bootstrap")
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	logger.Printf("listening on %s", *addr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGHUP, syscall.SIGINT, syscall.SIGTERM)
	for {
		select {
		case err := <-errc:
			logger.Fatal(err)
		case sig := <-sigc:
			if sig == syscall.SIGHUP {
				if err := srv.Reload(); err != nil {
					logger.Printf("SIGHUP reload failed, serving previous model: %v", err)
				}
				continue
			}
			logger.Printf("%s: draining...", sig)
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			if err := hs.Shutdown(ctx); err != nil {
				logger.Printf("shutdown: %v", err)
			}
			cancel()
			srv.Close() // answer everything the batcher accepted
			logger.Println("drained, bye")
			return
		}
	}
}

// bootstrapTrain collects simulated sparse profiles and trains the serving
// model in-process, so hsserve can run without a model file.
func bootstrapTrain(tr *hsmodel.Trainer, nApps, samples, pop, gens int, seed uint64, shardLen int, logger *log.Logger) error {
	all := trace.SPEC2006()
	if nApps <= 0 || nApps > len(all) {
		nApps = len(all)
	}
	col := &hsmodel.Collector{ShardLen: shardLen}
	logger.Printf("bootstrap: collecting %d samples/app from %d applications...", samples, nApps)
	tr.SetSamples(col.Collect(all[:nApps], samples, seed))
	tr.Search = hsmodel.SearchParams{PopulationSize: pop, Generations: gens, Seed: seed}
	logger.Printf("bootstrap: training (pop %d, %d generations)...", pop, gens)
	start := time.Now()
	if err := tr.Train(context.Background()); err != nil {
		return fmt.Errorf("bootstrap training failed: %w", err)
	}
	snap := tr.Snapshot()
	logger.Printf("bootstrap: trained on %d rows in %s, family %s, spec %s",
		snap.TrainedRows(), time.Since(start).Round(time.Millisecond),
		snap.Family(), snap.Describe().Spec)
	return nil
}

// runSelfcheck is the CI smoke test: bootstrap a tiny model, serve it on a
// random loopback port, then drive the API as a real HTTP client — one
// predict, one coalescing batch, a samples POST, and a metrics scrape — and
// fail on any non-200 or inconsistent answer.
func runSelfcheck(logger *log.Logger) error {
	tr := hsmodel.New(nil, hsmodel.WithSeed(7), hsmodel.WithShardLen(20_000))
	if err := bootstrapTrain(tr, 3, 40, 8, 2, 7, 20_000, logger); err != nil {
		return err
	}
	srv, err := serve.New(serve.Config{Trainer: tr, MaxWait: 5 * time.Millisecond, Logger: logger})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		hs.Shutdown(ctx)
		cancel()
		srv.Close()
	}()

	// A real profile from the trainer's store doubles as the request payload
	// and the expected-value oracle.
	sample := tr.Samples()[0]
	wire := hsmodel.SampleToWire(sample)
	want, err := tr.Snapshot().PredictShard(sample.X, sample.HW)
	if err != nil {
		return err
	}

	// One single-shard predict.
	var pr hsmodel.PredictResponse
	req := hsmodel.PredictRequest{X: wire.X, Config: wire.Config}
	if err := postJSON(base+"/v1/predict", req, &pr); err != nil {
		return fmt.Errorf("predict: %w", err)
	}
	if math.Float64bits(pr.CPI) != math.Float64bits(want) {
		return fmt.Errorf("predict: served CPI %v differs from direct snapshot prediction %v", pr.CPI, want)
	}
	logger.Printf("predict ok: cpi %.4f", pr.CPI)

	// One batch: every item must come back error-free with the oracle value.
	const items = 16
	batch := hsmodel.BatchPredictRequest{}
	for i := 0; i < items; i++ {
		batch.Requests = append(batch.Requests, req)
	}
	var br hsmodel.BatchPredictResponse
	if err := postJSON(base+"/v1/predict:batch", batch, &br); err != nil {
		return fmt.Errorf("predict:batch: %w", err)
	}
	if len(br.Results) != items {
		return fmt.Errorf("predict:batch: %d results for %d requests", len(br.Results), items)
	}
	for i, item := range br.Results {
		if item.Error != "" || math.Float64bits(item.CPI) != math.Float64bits(want) {
			return fmt.Errorf("predict:batch item %d: cpi %v error %q", i, item.CPI, item.Error)
		}
	}
	logger.Printf("batch ok: %d items, mean coalesced batch %.1f", items, srv.BatchMean())

	// Absorb one sample (no async update — keep the check fast).
	var sr hsmodel.SamplesResponse
	if err := postJSON(base+"/v1/samples", hsmodel.SamplesRequest{Samples: []hsmodel.SampleWire{wire}}, &sr); err != nil {
		return fmt.Errorf("samples: %w", err)
	}
	if sr.Accepted != 1 {
		return fmt.Errorf("samples: accepted %d, want 1", sr.Accepted)
	}

	// The metrics page must reflect what we just did.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	page, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("metrics: status %d", resp.StatusCode)
	}
	for _, marker := range []string{
		`hsserve_requests_total{endpoint="predict",code="200"} 1`,
		`hsserve_requests_total{endpoint="predict_batch",code="200"} 1`,
		`hsserve_model_trained 1`,
		`hsserve_batch_size_count`,
	} {
		if !strings.Contains(string(page), marker) {
			return fmt.Errorf("metrics page missing %q", marker)
		}
	}
	logger.Println("metrics ok")
	return nil
}

// runRegistryCheck is the CI smoke test for multi-model serving: it boots a
// server from a three-entry manifest (two application-scoped models plus one
// wildcard) next to the bootstrap-trained default entry, fans one profile
// stream through the legacy /v1/samples route, and asserts the registry
// semantics end to end — every matching entry's store advanced, every entry
// retrains to a served snapshot, /v1 and /v2 answer bit-identical
// predictions for the default entry, wire register/unregister round-trips
// through the persisted manifest, and the scrape carries the per-model
// series.
func runRegistryCheck(logger *log.Logger) error {
	tr := hsmodel.New(nil, hsmodel.WithSeed(7), hsmodel.WithShardLen(20_000))
	if err := bootstrapTrain(tr, 3, 40, 8, 2, 7, 20_000, logger); err != nil {
		return err
	}

	dir, err := os.MkdirTemp("", "hsserve-registrycheck")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	manifestPath := filepath.Join(dir, "models.json")
	man := hsmodel.Manifest{Models: []hsmodel.RegisterRequest{
		{ID: "m-bzip2", Application: "bzip2", Seed: 11, ShardLen: 20_000, Population: 8, Generations: 2},
		{ID: "m-hmmer", Application: "hmmer", Seed: 12, ShardLen: 20_000, Population: 8, Generations: 2},
		{ID: "m-all", Seed: 13, ShardLen: 20_000, Population: 8, Generations: 2},
	}}
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(manifestPath, data, 0o644); err != nil {
		return err
	}

	srv, err := serve.New(serve.Config{
		Trainer: tr, MaxWait: 5 * time.Millisecond, ManifestPath: manifestPath, Logger: logger,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		hs.Shutdown(ctx)
		cancel()
		srv.Close()
	}()
	ctx := context.Background()
	client := hsmodel.NewClient("http://" + ln.Addr().String())

	// The fleet: default + the three manifest entries, default trained.
	reg, err := client.Models(ctx)
	if err != nil {
		return fmt.Errorf("models: %w", err)
	}
	status := make(map[string]hsmodel.ModelStatus, len(reg.Models))
	for _, m := range reg.Models {
		status[m.ID] = m
	}
	if len(reg.Models) != 4 {
		return fmt.Errorf("models: %d entries, want 4 (default + manifest)", len(reg.Models))
	}
	if !status[hsmodel.DefaultModelID].Trained {
		return fmt.Errorf("models: default entry not trained after bootstrap")
	}
	baseline := map[string]int{}
	for id, m := range status {
		baseline[id] = m.TotalSamples
	}

	// Fan one profile stream through the legacy route: every entry whose
	// application scope matches a sample must absorb it.
	apps := []*trace.App{trace.Bzip2(), trace.Hmmer(), trace.Sjeng()}
	col := &hsmodel.Collector{ShardLen: 20_000}
	// 100 samples/app: enough rows for an application-scoped entry (which
	// absorbs only its own third of the stream) to fit a searched spec.
	logger.Println("registrycheck: collecting fan-out stream...")
	stream := col.Collect(apps, 100, 9)
	wire := make([]hsmodel.SampleWire, len(stream))
	perApp := map[string]int{}
	for i, s := range stream {
		wire[i] = hsmodel.SampleToWire(s)
		perApp[s.App]++
	}
	sr, err := client.Samples(ctx, hsmodel.SamplesRequest{Samples: wire})
	if err != nil {
		return fmt.Errorf("samples fan-out: %w", err)
	}
	if sr.Accepted != len(stream) {
		return fmt.Errorf("samples fan-out: accepted %d, want %d", sr.Accepted, len(stream))
	}
	reg, err = client.Models(ctx)
	if err != nil {
		return err
	}
	for _, m := range reg.Models {
		want := len(stream) // wildcard scope ("default", "m-all")
		if app := m.Application; app != "" {
			want = perApp[app]
		}
		if got := m.TotalSamples - baseline[m.ID]; got != want {
			return fmt.Errorf("fan-out: model %q store advanced by %d samples, want %d", m.ID, got, want)
		}
	}
	logger.Printf("fan-out ok: %d samples advanced all %d matching stores", len(stream), len(reg.Models))

	// Retrain every manifest entry on its fanned-out share and wait for the
	// snapshot: trained-row counts must advance from zero.
	sampleFor := func(app string) hsmodel.SampleWire {
		for i, s := range stream {
			if app == "" || s.App == app {
				return wire[i]
			}
		}
		return wire[0]
	}
	for _, id := range []string{"m-bzip2", "m-hmmer", "m-all"} {
		mc := client.Model(id)
		sr, err := mc.Samples(ctx, hsmodel.SamplesRequest{
			Samples: []hsmodel.SampleWire{sampleFor(status[id].Application)},
			Update:  true,
		})
		if err != nil {
			return fmt.Errorf("model %q samples: %w", id, err)
		}
		if !sr.UpdateStarted {
			return fmt.Errorf("model %q: update not started", id)
		}
		deadline := time.Now().Add(2 * time.Minute)
		for {
			info, err := mc.ModelInfo(ctx)
			if err != nil {
				return fmt.Errorf("model %q info: %w", id, err)
			}
			if info.Trained {
				if info.Model != id {
					return fmt.Errorf("model %q info: addressed body names %q", id, info.Model)
				}
				if info.TrainedRows <= 0 {
					return fmt.Errorf("model %q: trained with %d rows", id, info.TrainedRows)
				}
				logger.Printf("model %q trained: family %s, %d rows", id, info.Family, info.TrainedRows)
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("model %q: not trained within deadline", id)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// v1 and the model-addressed v2 route must answer the default entry's
	// predictions bit-identically.
	preq := hsmodel.PredictRequest{X: wire[0].X, Config: wire[0].Config}
	v1p, err := client.Predict(ctx, preq)
	if err != nil {
		return fmt.Errorf("v1 predict: %w", err)
	}
	v2p, err := client.Model(hsmodel.DefaultModelID).Predict(ctx, preq)
	if err != nil {
		return fmt.Errorf("v2 predict: %w", err)
	}
	if math.Float64bits(v1p.CPI) != math.Float64bits(v2p.CPI) {
		return fmt.Errorf("v1/v2 parity: %v vs %v", v1p.CPI, v2p.CPI)
	}
	logger.Printf("v1/v2 parity ok: cpi %.4f", v1p.CPI)

	// The "app:<name>" alias rides the consistent-hash ring to an entry whose
	// scope covers the application.
	info, err := client.Model("app:bzip2").ModelInfo(ctx)
	if err != nil {
		return fmt.Errorf("app alias: %w", err)
	}
	if info.Model == "" || (info.Application != "" && info.Application != "bzip2") {
		return fmt.Errorf("app alias: routed to %q (app %q)", info.Model, info.Application)
	}
	logger.Printf("app:bzip2 routed to %q", info.Model)

	// Wire register/unregister must round-trip through the persisted manifest.
	extra := hsmodel.RegisterRequest{ID: "m-extra", Application: "sjeng", Seed: 14, ShardLen: 20_000, Population: 8, Generations: 2}
	if _, err := client.RegisterModel(ctx, extra); err != nil {
		return fmt.Errorf("register: %w", err)
	}
	if n, err := manifestLen(manifestPath); err != nil || n != 4 {
		return fmt.Errorf("manifest after register: %d entries (err %w), want 4", n, err)
	}
	if err := client.UnregisterModel(ctx, "m-extra"); err != nil {
		return fmt.Errorf("unregister: %w", err)
	}
	if n, err := manifestLen(manifestPath); err != nil || n != 3 {
		return fmt.Errorf("manifest after unregister: %d entries (err %w), want 3", n, err)
	}
	logger.Println("register/unregister ok: manifest persisted")

	// The scrape must carry the registry-wide and per-model series.
	resp, err := http.Get("http://" + ln.Addr().String() + "/metrics")
	if err != nil {
		return err
	}
	page, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	for _, marker := range []string{
		`hsserve_registry_models 4`,
		`hsserve_registry_model_trained{model="m-bzip2"} 1`,
		`hsserve_registry_model_trained{model="m-hmmer"} 1`,
		`hsserve_registry_model_trained{model="m-all"} 1`,
		fmt.Sprintf(`hsserve_registry_model_samples{model="m-all"} %d`, len(stream)+1),
		`hsserve_model_requests_total{model="default",endpoint="predict",code="200"} 1`,
		`hsserve_model_requests_total{model="m-bzip2",endpoint="v2_samples",code="200"} 1`,
	} {
		if !strings.Contains(string(page), marker) {
			return fmt.Errorf("metrics page missing %q", marker)
		}
	}
	logger.Println("registry metrics ok")
	return nil
}

// manifestLen counts the model entries in the persisted manifest.
func manifestLen(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var man hsmodel.Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return 0, err
	}
	return len(man.Models), nil
}

// runDriftCheck is the CI smoke test for the continuous-learning loop: it
// scripts the two decisive lifecycle outcomes end to end through a real HTTP
// client — a persistent regime shift the loop must adapt to (exactly one
// promotion) and a transient label poisoning the loop must refuse (exactly
// one rollback) — and fails unless both happen. Every ingredient is seeded,
// so the episodes replay identically run to run.
func runDriftCheck(logger *log.Logger) error {
	apps := []*trace.App{trace.Bzip2(), trace.Hmmer(), trace.Sjeng()}
	col := &hsmodel.Collector{ShardLen: 20_000, ShardPool: 12}
	logger.Println("driftcheck: collecting bootstrap and stream profiles...")
	train := col.Collect(apps, 40, 7)
	stream := col.Collect(apps, 30, 21)

	// Phase 1 — promotion: a persistent x1.6 label shift (~37% incumbent
	// error against a ~5% clean baseline) trips the detector, the shadow
	// candidate fits the shifted regime and wins the canary.
	st, err := driveDriftEpisode(logger, train, stream, 11, 0, &faultinject.DriftSchedule{
		Segments: []faultinject.DriftSegment{{From: 1, Factor: 1.6}},
	})
	if err != nil {
		return fmt.Errorf("promotion phase: %w", err)
	}
	if st.Promotions != 1 || st.Rollbacks != 0 {
		return fmt.Errorf("promotion phase: promotions=%d rollbacks=%d, want exactly 1/0 (status %+v)", st.Promotions, st.Rollbacks, st)
	}
	logger.Printf("promotion ok: state %s after %d submissions", st.State, st.Submissions)

	// Phase 2 — rollback: a transient x3 shift that ends before the retrain
	// fires poisons the gathered store; the candidate fits a biased mixture,
	// loses the canary against the clean incumbent, and must be rolled back.
	st, err = driveDriftEpisode(logger, train, stream, 5, 0.05, &faultinject.DriftSchedule{
		Segments: []faultinject.DriftSegment{{From: 11, To: 24, Factor: 3}},
	})
	if err != nil {
		return fmt.Errorf("rollback phase: %w", err)
	}
	if st.Rollbacks != 1 || st.Promotions != 0 {
		return fmt.Errorf("rollback phase: promotions=%d rollbacks=%d, want exactly 0/1 (status %+v)", st.Promotions, st.Rollbacks, st)
	}
	if st.State != "cooldown" {
		return fmt.Errorf("rollback phase: state %q, want cooldown", st.State)
	}
	logger.Printf("rollback ok: canary %.3f vs incumbent %.3f, cooling down for %d submissions",
		st.CanaryErr, st.IncumbentErr, st.CooldownRemaining)
	return nil
}

// driveDriftEpisode boots a freshly trained server with the lifecycle loop
// enabled, streams schedule-perturbed profiles through POST /v1/samples one
// at a time — waiting out any in-flight episode between submissions so the
// outcome is fully determined by the seeds — and returns the loop status
// once a promotion or rollback lands.
func driveDriftEpisode(logger *log.Logger, train, stream []hsmodel.Sample, seed uint64, canaryTol float64, sched *faultinject.DriftSchedule) (hsmodel.LifecycleStatus, error) {
	var st hsmodel.LifecycleStatus

	tr := hsmodel.New(append([]hsmodel.Sample(nil), train...),
		hsmodel.WithShardLen(20_000),
		hsmodel.WithSearch(hsmodel.SearchParams{PopulationSize: 10, Generations: 2, Seed: 3}))
	if err := tr.Train(context.Background()); err != nil {
		return st, err
	}

	srv, err := serve.New(serve.Config{
		Trainer: tr,
		MaxWait: time.Millisecond,
		Logger:  logger,
		Lifecycle: &hsmodel.LifecycleConfig{
			Drift:           hsmodel.DriftConfig{Target: 0.2},
			MinProfiles:     10,
			MinTrainRows:    24,
			CanaryTolerance: canaryTol,
			Seed:            seed,
			Resilience:      hsmodel.Resilience{StepwiseBudget: 150},
		},
	})
	if err != nil {
		return st, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		hs.Shutdown(ctx)
		cancel()
		srv.Close()
	}()

	deadline := time.Now().Add(3 * time.Minute)
	for i := 0; ; i++ {
		if time.Now().After(deadline) {
			return st, fmt.Errorf("no episode outcome within deadline (status %+v)", st)
		}
		v := stream[i%len(stream)]
		v.CPI, _ = sched.Next(v.CPI)
		var sr hsmodel.SamplesResponse
		if err := postJSON(base+"/v1/samples", hsmodel.SamplesRequest{
			Samples: []hsmodel.SampleWire{hsmodel.SampleToWire(v)},
		}, &sr); err != nil {
			return st, fmt.Errorf("submission %d: %w", i+1, err)
		}
		// Wait out the background episode so the submission order alone
		// determines what the loop sees.
		for {
			if err := getJSON(base+"/v1/lifecycle", &st); err != nil {
				return st, err
			}
			if st.State != "retraining" && st.State != "canary" {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if st.Promotions > 0 || st.Rollbacks > 0 {
			return st, nil
		}
	}
}

// getJSON GETs url and decodes the response into out, failing on non-200.
func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e hsmodel.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("status %d: %s", resp.StatusCode, e.Error)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// postJSON POSTs v and decodes the response into out, failing on non-200.
func postJSON(url string, v, out any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e hsmodel.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("status %d: %s", resp.StatusCode, e.Error)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
