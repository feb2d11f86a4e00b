package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http/httptest"
	"sync"
	"time"

	"hsmodel/internal/core"
	"hsmodel/internal/hwspace"
	"hsmodel/internal/profile"
	"hsmodel/internal/registry"
	"hsmodel/internal/serve"
	"hsmodel/pkg/hsmodel"
)

// serve_read: two closed-loop clients, each waiting for its reply like the
// autotuners and schedulers that consume predictions, against the default
// entry plus two registry entries that share the set-up model.
const (
	readClients = 2
	batchRows   = 64
	appShards   = 8
	ringSize    = 25 * deckSize // pre-built requests per client, replayed in order
	probeEvery  = 16            // traced windows probe the layers on every 16th request
	numConfigs  = 256
)

type readEnv struct {
	boot   *bootstrap
	fl     *fleet
	shards []core.Sample                        // one sample per distinct shard
	byApp  map[string][]profile.Characteristics // distinct shard profiles per app
	apps   []string                             // applications with >= appShards shards
	ids    []string                             // exact model ids of the fleet
}

func setupServeRead(o options) (environment, error) {
	boot, err := trainBootstrap()
	if err != nil {
		return nil, err
	}
	fl, err := bootServer(serve.Config{Trainer: boot.trainer, RegistrySeed: 1})
	if err != nil {
		return nil, err
	}
	env := &readEnv{boot: boot, fl: fl, byApp: map[string][]profile.Characteristics{}, ids: []string{hsmodel.DefaultModelID}}
	for _, app := range []string{boot.apps[0].Name, boot.apps[2].Name} {
		id := "m-" + app
		e, err := fl.srv.Registry().Register(registry.Spec{ID: id, Application: app, ShardLen: bootShardLen})
		if err != nil {
			fl.close()
			return nil, err
		}
		e.Trainer().Adopt(boot.trainer.Snapshot())
		env.ids = append(env.ids, id)
	}
	env.shards, _ = distinctShards(boot.samples)
	for _, s := range env.shards {
		env.byApp[s.App] = append(env.byApp[s.App], s.X)
	}
	for _, a := range boot.apps {
		if len(env.byApp[a.Name]) >= appShards {
			env.apps = append(env.apps, a.Name)
		}
	}
	return env, nil
}

func (e *readEnv) close() { e.fl.close() }

// readReq is one pre-built request with the answers the served snapshot
// must give, computed in-process beforehand.
type readReq struct {
	kind    requestKind
	addr    string // model address the request resolves
	path    string
	body    []byte
	want    []float64
	rows    int // shard rows predicted
	repeats int // batch rows whose shard already appeared in the batch
	xs      []profile.Characteristics
	hws     []hwspace.Config
}

// buildRequests draws n requests from the client's seeded mix.
func (e *readEnv) buildRequests(m *mixStream, configs []hwspace.Config, n int) ([]readReq, error) {
	reg := e.fl.srv.Registry()
	out := make([]readReq, n)
	for i := range out {
		r := readReq{kind: m.next()}
		switch r.kind {
		case kindSingle:
			s := e.shards[m.intn(len(e.shards))]
			r.addr, r.path = hsmodel.DefaultModelID, "/v1/predict"
			r.xs, r.hws = []profile.Characteristics{s.X}, []hwspace.Config{configs[m.intn(len(configs))]}
		case kindScatter:
			r.addr = e.ids[m.intn(len(e.ids))]
			r.path = "/v2/models/" + r.addr + "/predict:batch"
			type pair struct{ s, c int }
			seen := map[pair]bool{}
			shardSeen := map[int]bool{}
			for len(r.xs) < batchRows {
				p := pair{m.intn(len(e.shards)), m.intn(len(configs))}
				if seen[p] {
					continue
				}
				seen[p] = true
				if shardSeen[p.s] {
					r.repeats++
				}
				shardSeen[p.s] = true
				r.xs = append(r.xs, e.shards[p.s].X)
				r.hws = append(r.hws, configs[p.c])
			}
		case kindSweep:
			app := e.boot.apps[m.intn(len(e.boot.apps))].Name
			r.addr = "app:" + app
			r.path = "/v2/models/" + r.addr + "/predict:batch"
			x := e.byApp[app][m.intn(len(e.byApp[app]))]
			for _, c := range m.r.Perm(len(configs))[:batchRows] {
				r.xs = append(r.xs, x)
				r.hws = append(r.hws, configs[c])
			}
			r.repeats = batchRows - 1
		case kindApp:
			app := e.apps[m.intn(len(e.apps))]
			r.addr, r.path = hsmodel.DefaultModelID, "/v1/predict"
			for _, k := range m.r.Perm(len(e.byApp[app]))[:appShards] {
				r.xs = append(r.xs, e.byApp[app][k])
			}
			r.hws = []hwspace.Config{configs[m.intn(len(configs))]}
		}
		ent, ok := reg.Resolve(r.addr)
		if !ok {
			return nil, fmt.Errorf("model address %q does not resolve", r.addr)
		}
		snap := ent.Trainer().Snapshot()
		var body any
		switch r.kind {
		case kindSingle:
			v, err := snap.PredictShard(r.xs[0], r.hws[0])
			if err != nil {
				return nil, err
			}
			r.want, r.rows = []float64{v}, 1
			body = wireRequest(r.xs[0], r.hws[0])
		case kindApp:
			v, err := snap.PredictApplication(r.xs, r.hws[0])
			if err != nil {
				return nil, err
			}
			r.want, r.rows = []float64{v}, appShards
			shards := make([][]float64, len(r.xs))
			for k, x := range r.xs {
				shards[k] = append([]float64(nil), x[:]...)
			}
			hw := r.hws[0]
			body = hsmodel.PredictRequest{Shards: shards, Config: &hw}
		default:
			r.want, r.rows = make([]float64, batchRows), batchRows
			if err := snap.PredictBatch(rowsOf(r.xs, r.hws), r.want); err != nil {
				return nil, err
			}
			var br hsmodel.BatchPredictRequest
			for k := range r.xs {
				br.Requests = append(br.Requests, wireRequest(r.xs[k], r.hws[k]))
			}
			body = br
		}
		data, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		r.body = data
		out[i] = r
	}
	return out, nil
}

func wireRequest(x profile.Characteristics, hw hwspace.Config) hsmodel.PredictRequest {
	return hsmodel.PredictRequest{X: append([]float64(nil), x[:]...), Config: &hw}
}

func rowsOf(xs []profile.Characteristics, hws []hwspace.Config) [][]float64 {
	rows := make([][]float64, len(xs))
	for i := range xs {
		rows[i] = core.Sample{X: xs[i], HW: hws[i]}.Row()
	}
	return rows
}

// answers decodes a reply body into the predicted CPIs.
func answers(kind requestKind, body []byte) ([]float64, error) {
	if kind == kindSingle || kind == kindApp {
		var resp hsmodel.PredictResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, err
		}
		return []float64{resp.CPI}, nil
	}
	var resp hsmodel.BatchPredictResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	out := make([]float64, len(resp.Results))
	for i, it := range resp.Results {
		if it.Error != "" {
			return nil, fmt.Errorf("item %d: %s", i, it.Error)
		}
		out[i] = it.CPI
	}
	return out, nil
}

// check compares a reply with the in-process answers bit for bit.
func check(want []float64, body []byte, kind requestKind) error {
	got, err := answers(kind, body)
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d answers for %d rows", len(got), len(want))
	}
	for i := range got {
		if !sameBits(got[i], want[i]) {
			return fmt.Errorf("row %d: served %v, in-process %v", i, got[i], want[i])
		}
	}
	return nil
}

// clientStats is one closed-loop client's record.
type clientStats struct {
	lat     [numKinds][]float64 // ms
	rows    int64
	batchN  int64 // batch rows sent
	repeats int64
}

func (e *readEnv) window(o options, tr *tracer, led *ledger) (*windowOut, error) {
	configs := configPool(rand.New(rand.NewPCG(o.seed, 0xc0f1)), numConfigs)
	rings := make([][]readReq, readClients)
	for c := range rings {
		var err error
		if rings[c], err = e.buildRequests(newMixStream(o.seed, c), configs, ringSize); err != nil {
			return nil, err
		}
	}

	stats := make([]clientStats, readClients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(o.window())
	for c := 0; c < readClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := newHTTPClient(e.fl.base)
			defer client.close()
			st := &stats[c]
			for i := 0; time.Now().Before(deadline); i++ {
				r := &rings[c][i%ringSize]
				root := tr.begin("request."+r.kind.String(), open{})
				t0 := time.Now()
				status, body, err := client.do("POST", r.path, r.body)
				t1 := time.Now()
				tr.record("serve.socket", root, t0, t1)
				phase := "read." + r.kind.String()
				if reason := failReason(status, err); reason != "" {
					led.fail(phase, reason, fmt.Sprintf("status %d %v %s", status, err, body))
				} else if err := check(r.want, body, r.kind); err != nil {
					led.fail(phase, failWrong, err.Error())
				} else {
					led.ok(phase)
					st.lat[r.kind] = append(st.lat[r.kind], float64(t1.Sub(t0))/1e6)
					st.rows += int64(r.rows)
					if r.kind == kindScatter || r.kind == kindSweep {
						st.batchN += int64(r.rows)
						st.repeats += int64(r.repeats)
					}
				}
				if tr != nil && i%probeEvery == 0 {
					probeLayers(e.fl, tr, root, r, led)
				}
				root.end()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var lat [numKinds][]float64
	var rows, batchN, repeats int64
	for _, st := range stats {
		for k := range lat {
			lat[k] = append(lat[k], st.lat[k]...)
		}
		rows += st.rows
		batchN += st.batchN
		repeats += st.repeats
	}
	heavy := append(append([]float64(nil), lat[kindScatter]...), lat[kindSweep]...)
	out := &windowOut{
		e2e: map[string]float64{
			"ops_per_s":    float64(rows) / elapsed.Seconds(),
			"light_p50_ms": median(lat[kindSingle]),
			"heavy_p50_ms": median(heavy),
			"medape":       e.boot.medape,
		},
		layers: map[string]float64{},
		detail: map[string]any{"elapsed_s": elapsed.Seconds(), "rows": rows, "batch_mean": e.fl.srv.BatchMean()},
	}
	for k := requestKind(0); k < numKinds; k++ {
		out.detail[k.String()+"_ms"] = summarize(lat[k])
	}
	out.detail["batch_ms"] = summarize(heavy)
	if batchN > 0 {
		out.detail["sweep_share"] = float64(repeats) / float64(batchN)
	}
	if tr != nil {
		e.fillLayers(tr, led, out, rings[0])
		if batchN > 0 {
			out.layers["serve_read.sweep_share"] = float64(repeats) / float64(batchN)
		}
	}
	return out, nil
}

// probeLayers replays one request through each layer the benchmark can call on
// its own, under the request's root span: the handler without a socket, the
// handler's JSON decode, registry resolution, the entry's batcher, the
// snapshot's predict, and the response encode. Every answer is checked.
func probeLayers(fl *fleet, tr *tracer, root open, r *readReq, led *ledger) {
	rec := httptest.NewRecorder()
	hreq := httptest.NewRequest("POST", r.path, bytes.NewReader(r.body))
	sp := tr.begin("serve.handler", root)
	fl.srv.Handler().ServeHTTP(rec, hreq)
	sp.end()
	if rec.Code != 200 {
		led.fail("probe.handler", failError, fmt.Sprintf("status %d", rec.Code))
	} else if err := check(r.want, rec.Body.Bytes(), r.kind); err != nil {
		led.fail("probe.handler", failWrong, err.Error())
	} else {
		led.ok("probe.handler")
	}

	sp = tr.begin("serve.decode", root)
	err := decodeWire(r.kind, r.body)
	sp.end()
	if err != nil {
		led.fail("probe.decode", failError, err.Error())
	}

	reg := fl.srv.Registry()
	var ent *registry.Entry
	sp = tr.begin("registry.resolve", root)
	for k := 0; k < resolveReps; k++ {
		ent, _ = reg.Resolve(r.addr)
	}
	sp.end()
	snap := ent.Trainer().Snapshot()
	ctx := context.Background()

	got := make([]float64, len(r.want))
	switch r.kind {
	case kindSingle:
		sp = tr.begin("batcher.submit", root)
		v, err := ent.Predict(ctx, r.xs[0], r.hws[0])
		sp.end()
		sp = tr.begin("predict.scalar", root)
		w, err2 := snap.PredictShard(r.xs[0], r.hws[0])
		sp.end()
		got[0] = v
		if err == nil && err2 == nil && !sameBits(v, w) {
			err = fmt.Errorf("batcher %v, snapshot %v", v, w)
		}
		err = firstErr(err, err2)
	case kindApp:
		sp = tr.begin("predict.app", root)
		got[0], err = snap.PredictApplication(r.xs, r.hws[0])
		sp.end()
	default:
		sp = tr.begin("batcher.submit", root)
		err = ent.PredictMany(ctx, r.xs, r.hws, got)
		sp.end()
		rows := rowsOf(r.xs, r.hws)
		direct := make([]float64, len(rows))
		sp = tr.begin("predict.batch", root)
		err2 := snap.PredictBatch(rows, direct)
		sp.end()
		err = firstErr(err, err2)
		for i := range direct {
			if err == nil && !sameBits(direct[i], got[i]) {
				err = fmt.Errorf("row %d: batcher %v, snapshot %v", i, got[i], direct[i])
			}
		}
	}
	for i := range got {
		if err == nil && !sameBits(got[i], r.want[i]) {
			err = fmt.Errorf("row %d: %v, want %v", i, got[i], r.want[i])
		}
	}
	if err != nil {
		led.fail("probe.predict", failWrong, err.Error())
	} else {
		led.ok("probe.predict")
	}

	sp = tr.begin("serve.encode", root)
	encodeWire(r.kind, r.want)
	sp.end()
}

// resolveReps is how many Resolve calls one registry.resolve span covers, so
// the span is long against the clock's resolution.
const resolveReps = 64

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// decodeWire decodes a request body into the wire types the handler decodes
// it into, with the handler's unknown-field check.
func decodeWire(kind requestKind, body []byte) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if kind == kindSingle || kind == kindApp {
		var req hsmodel.PredictRequest
		return dec.Decode(&req)
	}
	var req hsmodel.BatchPredictRequest
	return dec.Decode(&req)
}

// encodeWire encodes the response the handler would write for want.
func encodeWire(kind requestKind, want []float64) {
	enc := json.NewEncoder(io.Discard)
	switch kind {
	case kindSingle:
		enc.Encode(hsmodel.PredictResponse{CPI: want[0], Shards: 1})
	case kindApp:
		enc.Encode(hsmodel.PredictResponse{CPI: want[0], Shards: appShards})
	default:
		resp := hsmodel.BatchPredictResponse{Results: make([]hsmodel.BatchPredictItem, len(want))}
		for i, v := range want {
			resp.Results[i] = hsmodel.BatchPredictItem{CPI: v, Shards: 1}
		}
		enc.Encode(resp)
	}
}

// fillLayers derives serve_read's per-layer figures from the spans, then
// measures allocations and the substrate and fit probes on the idle system.
func (e *readEnv) fillLayers(tr *tracer, led *ledger, out *windowOut, ring []readReq) {
	byReq, roots := spansByReq(tr.all())
	single := []string{"request.single"}
	batch := []string{"request.scatter", "request.sweep"}
	l := out.layers
	l["serve.socket_us"] = medianOver(byReq, roots, single, diff("serve.socket", "serve.handler"))
	l["serve.handler_us"] = medianOver(byReq, roots, batch, has("serve.handler", 1))
	l["serve.decode_us"] = medianOver(byReq, roots, batch, has("serve.decode", 1))
	l["serve.encode_us"] = medianOver(byReq, roots, batch, has("serve.encode", 1))
	l["registry.resolve_ns"] = medianOver(byReq, roots, append(single, batch...), has("registry.resolve", 1e3/resolveReps))
	l["batcher.wait_us"] = medianOver(byReq, roots, single, diff("batcher.submit", "predict.scalar"))
	l["predict.scalar_ns"] = medianOver(byReq, roots, single, has("predict.scalar", 1e3))
	l["predict.batch_ns_per_row"] = medianOver(byReq, roots, batch, has("predict.batch", 1e3/batchRows))
	l["predict.app_ns_per_shard"] = medianOver(byReq, roots, []string{"request.app"}, has("predict.app", 1e3/appShards))
	l["batcher.items_per_flush"] = e.fl.srv.BatchMean()
	l["registry.sheds"] = float64(led.reason(failShed))
	allocProbes(ring, e.boot.trainer.Snapshot(), l)
	substrateProbe(tr, led, e.boot.apps, e.boot.samples, bootShardLen, 6, l)
	if fz, gram, err := fitProbe(tr, e.boot.samples); err == nil {
		l["fit.featurize_ms"], l["fit.gram_build_ms"] = fz, gram
	}
}

// allocProbes measures the decode allocations of a batch body and the
// allocations per predicted row of the batch kernel, with the load stopped.
func allocProbes(ring []readReq, snap *core.Snapshot, l map[string]float64) {
	for i := range ring {
		r := &ring[i]
		if r.kind != kindScatter {
			continue
		}
		l["serve.decode_allocs"] = allocsPer(20, func() { decodeWire(r.kind, r.body) })
		rows := rowsOf(r.xs, r.hws)
		out := make([]float64, len(rows))
		l["predict.allocs_per_row"] = allocsPer(20, func() { snap.PredictBatch(rows, out) }) / float64(len(rows))
		return
	}
}
