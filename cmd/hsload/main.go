// Command hsload is the serving-path load generator: it measures predict
// throughput and tail latency (p50/p99/p999) through the real serve stack and
// writes a machine-readable benchmark report (BENCH_pr8.json in CI).
//
// The default mode is in-process: it bootstrap-trains a model exactly like
// `hsserve -bootstrap`, then drives serve.Server's exported Predict /
// PredictMany APIs — the same code path HTTP handlers use, minus JSON and
// socket overhead, so the numbers isolate the batcher and model kernels.
// Three scenarios run back to back:
//
//	seed     one shard, MaxBatch 1, one prediction per queue round trip —
//	         the pre-sharding, pre-batching serving topology
//	sharded  per-CPU shards, coalescing enabled, still one prediction per
//	         submission
//	batch    per-CPU shards, whole client batches per submission
//	         (Server.PredictMany), answered in one batcher flush
//
// The report records each scenario's throughput and latency percentiles plus
// the batch-vs-seed speedup. With -addr it instead drives a live hsserve over
// HTTP — the legacy /v1 predict routes by default, or one entry of the
// multi-model registry over the /v2/models/{id} routes when -model-id names
// it (an exact id or the "app:<name>" consistent-hash alias).
//
//	hsload -out BENCH_pr8.json              in-process, write the report
//	hsload -duration 10s -conc 16           heavier in-process run
//	hsload -addr http://localhost:8080      load-test a running hsserve
//	hsload -addr ... -model-id m-bzip2      pin the load to one registry entry
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hsmodel/internal/hwspace"
	"hsmodel/internal/profile"
	"hsmodel/internal/serve"
	"hsmodel/internal/trace"
	"hsmodel/pkg/hsmodel"
)

func main() {
	addr := flag.String("addr", "", "drive a live hsserve at this base URL instead of in-process")
	modelID := flag.String("model-id", "", "with -addr: the registry entry to address over /v2 (exact id or app:<name>; empty = the /v1 default routes)")
	out := flag.String("out", "", "write the JSON report here (default: stdout only)")
	conc := flag.Int("conc", 8, "concurrent client goroutines per scenario")
	duration := flag.Duration("duration", 3*time.Second, "measured time per scenario")
	batch := flag.Int("batch", 64, "predictions per PredictMany submission in the batch scenario")
	apps := flag.Int("apps", 3, "bootstrap: number of SPEC2006 applications to profile")
	samples := flag.Int("samples", 40, "bootstrap: (shard, architecture) samples per application")
	pop := flag.Int("pop", 8, "bootstrap: genetic population size")
	gens := flag.Int("gens", 2, "bootstrap: genetic generations")
	seed := flag.Uint64("seed", 7, "bootstrap: random seed")
	shardLen := flag.Int("shardlen", 20_000, "bootstrap: shard length in instructions")
	flag.Parse()

	logger := log.New(os.Stderr, "hsload: ", log.LstdFlags)
	if err := run(logger, *addr, *modelID, *out, *conc, *duration, *batch, *apps, *samples, *pop, *gens, *seed, *shardLen); err != nil {
		logger.Fatal(err)
	}
}

// scenarioResult is one scenario's measurement in the report.
type scenarioResult struct {
	Predictions int     `json:"predictions"`
	PredsPerSec float64 `json:"preds_per_sec"`
	P50us       float64 `json:"p50_us"`
	P99us       float64 `json:"p99_us"`
	P999us      float64 `json:"p999_us"`
	Note        string  `json:"note"`
}

// report is the BENCH_pr8.json schema, modeled on the earlier BENCH files.
type report struct {
	PR        int                       `json:"pr"`
	Date      string                    `json:"date"`
	Host      string                    `json:"host"`
	Model     string                    `json:"model"`
	Config    map[string]any            `json:"config"`
	Scenarios map[string]scenarioResult `json:"scenarios"`
	// SpeedupBatchVsSeed is sharded-batch throughput over the seed topology's
	// (the acceptance metric: the batch path must clear 5x).
	SpeedupBatchVsSeed float64 `json:"speedup_batch_vs_seed"`
}

func run(logger *log.Logger, addr, modelID, out string, conc int, duration time.Duration, batch, nApps, samples, pop, gens int, seed uint64, shardLen int) error {
	xs, hws, tr, model, err := workload(logger, addr == "", nApps, samples, pop, gens, seed, shardLen)
	if err != nil {
		return err
	}

	rep := &report{
		PR:   8,
		Date: time.Now().Format("2006-01-02"),
		Host: fmt.Sprintf("%s/%s, GOMAXPROCS=%d", runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0)),
		Config: map[string]any{
			"conc": conc, "duration": duration.String(), "batch": batch,
			"apps": nApps, "samples_per_app": samples, "seed": seed, "shardlen": shardLen,
		},
		Scenarios: map[string]scenarioResult{},
		Model:     model,
	}

	if addr != "" {
		err = runHTTP(logger, rep, addr, modelID, conc, duration, batch, xs, hws)
	} else {
		err = runInProcess(logger, rep, tr, conc, duration, batch, xs, hws)
	}
	if err != nil {
		return err
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(enc))
	if out != "" {
		if err := os.WriteFile(out, append(enc, '\n'), 0o644); err != nil {
			return err
		}
		logger.Printf("report written to %s", out)
	}
	return nil
}

// workload builds the request vectors (and, in-process, the trained trainer):
// real collected profiles, so predictions exercise the fitted model on its
// own input distribution.
func workload(logger *log.Logger, train bool, nApps, samples, pop, gens int, seed uint64, shardLen int) ([]profile.Characteristics, []hwspace.Config, *hsmodel.Trainer, string, error) {
	all := trace.SPEC2006()
	if nApps <= 0 || nApps > len(all) {
		nApps = len(all)
	}
	col := &hsmodel.Collector{ShardLen: shardLen}
	logger.Printf("collecting %d samples/app from %d applications...", samples, nApps)
	sm := col.Collect(all[:nApps], samples, seed)
	xs := make([]profile.Characteristics, len(sm))
	hws := make([]hwspace.Config, len(sm))
	for i, s := range sm {
		xs[i], hws[i] = s.X, s.HW
	}
	if !train {
		return xs, hws, nil, "remote", nil
	}
	tr := hsmodel.New(append([]hsmodel.Sample(nil), sm...),
		hsmodel.WithSeed(seed), hsmodel.WithShardLen(shardLen),
		hsmodel.WithSearch(hsmodel.SearchParams{PopulationSize: pop, Generations: gens, Seed: seed}))
	logger.Printf("training (pop %d, %d generations)...", pop, gens)
	if err := tr.Train(context.Background()); err != nil {
		return nil, nil, nil, "", fmt.Errorf("bootstrap training failed: %w", err)
	}
	snap := tr.Snapshot()
	model := fmt.Sprintf("family %s, %d rows, spec %s", snap.Family(), snap.TrainedRows(), snap.Describe().Spec)
	logger.Printf("trained: %s", model)
	return xs, hws, tr, model, nil
}

// runInProcess measures the three in-process scenarios and the speedup.
func runInProcess(logger *log.Logger, rep *report, tr *hsmodel.Trainer, conc int, duration time.Duration, batch int, xs []profile.Characteristics, hws []hwspace.Config) error {
	seedRes, err := driveServer(logger, rep, "seed", serve.Config{
		Trainer: tr, Shards: 1, MaxBatch: 1, QueueDepth: 4 * conc,
	}, conc, duration, 1, xs, hws,
		"one shard, MaxBatch 1, one prediction per queue round trip: the pre-sharding, pre-batching topology")
	if err != nil {
		return err
	}
	// MaxBatch = conc: under a closed loop every flush fills from the blocked
	// clients instead of waiting out the gather window.
	if _, err := driveServer(logger, rep, "sharded", serve.Config{
		Trainer: tr, MaxBatch: conc, QueueDepth: 8 * conc, MaxWait: 200 * time.Microsecond,
	}, conc, duration, 1, xs, hws,
		"per-CPU shards, coalescing on, one prediction per submission"); err != nil {
		return err
	}
	batchRes, err := driveServer(logger, rep, "batch", serve.Config{
		Trainer: tr, MaxBatch: 4, QueueDepth: 8 * conc, MaxWait: 200 * time.Microsecond,
	}, conc, duration, batch, xs, hws,
		fmt.Sprintf("per-CPU shards, %d predictions per PredictMany submission, answered in one batcher flush", batch))
	if err != nil {
		return err
	}
	rep.SpeedupBatchVsSeed = batchRes.PredsPerSec / seedRes.PredsPerSec
	logger.Printf("speedup batch vs seed: %.1fx", rep.SpeedupBatchVsSeed)
	return nil
}

// driveServer runs one scenario: conc clients hammer a dedicated server for
// the configured duration; itemsPerCall selects Predict vs PredictMany.
// Latency is recorded per submission call.
func driveServer(logger *log.Logger, rep *report, name string, cfg serve.Config, conc int, duration time.Duration, itemsPerCall int, xs []profile.Characteristics, hws []hwspace.Config, note string) (scenarioResult, error) {
	srv, err := serve.New(cfg)
	if err != nil {
		return scenarioResult{}, err
	}
	defer srv.Close()

	var stop atomic.Bool
	lats := make([][]int64, conc)
	counts := make([]int, conc)
	errs := make([]error, conc)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := context.Background()
			bxs := make([]profile.Characteristics, itemsPerCall)
			bhws := make([]hwspace.Config, itemsPerCall)
			out := make([]float64, itemsPerCall)
			pos := c * 17 // decorrelate client request streams
			for !stop.Load() {
				for i := 0; i < itemsPerCall; i++ {
					bxs[i], bhws[i] = xs[pos%len(xs)], hws[pos%len(hws)]
					pos++
				}
				t0 := time.Now()
				var callErr error
				if itemsPerCall == 1 {
					_, callErr = srv.Predict(ctx, bxs[0], bhws[0])
				} else {
					callErr = srv.PredictMany(ctx, bxs, bhws, out)
				}
				if callErr != nil {
					errs[c] = callErr
					return
				}
				lats[c] = append(lats[c], time.Since(t0).Nanoseconds())
				counts[c] += itemsPerCall
			}
		}(c)
	}
	time.Sleep(duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return scenarioResult{}, fmt.Errorf("scenario %s: %w", name, err)
		}
	}
	res := summarize(lats, counts, elapsed, note)
	rep.Scenarios[name] = res
	logger.Printf("%-8s %9.0f preds/s  p50 %6.0fus  p99 %6.0fus  p999 %6.0fus",
		name, res.PredsPerSec, res.P50us, res.P99us, res.P999us)
	return res, nil
}

// runHTTP measures a live server over the wire: single predicts and batch
// posts, through the facade Client so the same run exercises the /v1 routes
// (empty model id) or one registry entry's /v2 routes. Latency includes JSON
// and socket cost — the client's view.
func runHTTP(logger *log.Logger, rep *report, base, modelID string, conc int, duration time.Duration, batch int, xs []profile.Characteristics, hws []hwspace.Config) error {
	newClient := func() *hsmodel.Client {
		return hsmodel.NewClient(base,
			hsmodel.WithModelID(modelID),
			hsmodel.WithHTTPClient(&http.Client{Timeout: 30 * time.Second}))
	}
	ctx := context.Background()
	single := func(pos int, client *hsmodel.Client) (int, error) {
		_, err := client.Predict(ctx, predictWire(xs[pos%len(xs)], hws[pos%len(hws)]))
		return 1, err
	}
	many := func(pos int, client *hsmodel.Client) (int, error) {
		var br hsmodel.BatchPredictRequest
		for i := 0; i < batch; i++ {
			br.Requests = append(br.Requests, predictWire(xs[(pos+i)%len(xs)], hws[(pos+i)%len(hws)]))
		}
		resp, err := client.PredictBatch(ctx, br)
		if err != nil {
			return 0, err
		}
		for _, item := range resp.Results {
			if item.Error != "" {
				return 0, fmt.Errorf("batch item error: %s", item.Error)
			}
		}
		return batch, nil
	}
	route := "/v1"
	if modelID != "" {
		route = "/v2/models/" + modelID
	}
	for _, sc := range []struct {
		name string
		call func(int, *hsmodel.Client) (int, error)
		note string
	}{
		{"http_single", single, fmt.Sprintf("one POST %s/predict per prediction: the wire shape of the unsharded/unbatched seed serving path", route)},
		{"http_batch", many, fmt.Sprintf("POST %s/predict:batch, %d predictions per request, answered as one multi-item job in one batcher flush", route, batch)},
	} {
		res, err := driveHTTP(newClient, sc.call, conc, duration, sc.note)
		if err != nil {
			return fmt.Errorf("scenario %s: %w", sc.name, err)
		}
		rep.Scenarios[sc.name] = res
		logger.Printf("%-11s %9.0f preds/s  p50 %6.0fus  p99 %6.0fus  p999 %6.0fus",
			sc.name, res.PredsPerSec, res.P50us, res.P99us, res.P999us)
	}
	if s, ok := rep.Scenarios["http_single"]; ok {
		rep.SpeedupBatchVsSeed = rep.Scenarios["http_batch"].PredsPerSec / s.PredsPerSec
	}
	return nil
}

func driveHTTP(newClient func() *hsmodel.Client, call func(int, *hsmodel.Client) (int, error), conc int, duration time.Duration, note string) (scenarioResult, error) {
	var stop atomic.Bool
	lats := make([][]int64, conc)
	counts := make([]int, conc)
	errs := make([]error, conc)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := newClient()
			pos := c * 17
			for !stop.Load() {
				t0 := time.Now()
				n, err := call(pos, client)
				if err != nil {
					errs[c] = err
					return
				}
				lats[c] = append(lats[c], time.Since(t0).Nanoseconds())
				counts[c] += n
				pos += n
			}
		}(c)
	}
	time.Sleep(duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return scenarioResult{}, err
		}
	}
	return summarize(lats, counts, elapsed, note), nil
}

func predictWire(x profile.Characteristics, hw hwspace.Config) hsmodel.PredictRequest {
	h := hw
	return hsmodel.PredictRequest{X: x[:], Config: &h}
}

// summarize merges per-client latency records into the scenario result.
func summarize(lats [][]int64, counts []int, elapsed time.Duration, note string) scenarioResult {
	var all []int64
	total := 0
	for c := range lats {
		all = append(all, lats[c]...)
		total += counts[c]
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		i := int(p * float64(len(all)-1))
		return float64(all[i]) / 1e3
	}
	return scenarioResult{
		Predictions: total,
		PredsPerSec: float64(total) / elapsed.Seconds(),
		P50us:       pct(0.50),
		P99us:       pct(0.99),
		P999us:      pct(0.999),
		Note:        note,
	}
}
