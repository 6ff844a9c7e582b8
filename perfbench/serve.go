package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"

	"mpicollpred/internal/core"
	"mpicollpred/internal/dataset"
	"mpicollpred/internal/eval"
	"mpicollpred/internal/serve"
)

// The serve workload is runtime selection: a closed loop of one in-process
// client calling serve.Server.Handler(), since each caller waits for its
// reply. The server holds knn, gam and xgboost snapshots of d1, d2 and d4,
// trained in setup from the committed caches, and runs with its default
// selection cache. The traffic is the repository's own load test made
// exact: the load generator replays a bounded pool of grid instances, and
// here each model's pool is its dataset's grid plus the out-of-envelope
// message sizes of the CI fallback load, which fall back to the Open MPI
// rule-based default. A pass requests every pool key the same number of
// times, in rounds, a fixed share of each round in /v1/batch requests of
// the CI batch size, so the hit ratio is partial and exactly repeatable.
// Intel models are left out: their fallback runs the simulator oracle,
// which the decide workload covers.
type serveBench struct {
	models []*serve.Model
	pools  [][]serve.InstanceRequest // per model
	reqs   []serveRequest
	// selections memoizes the checks' Selector.Select by key.
	selections map[serve.CacheKey]core.Prediction

	// traced-pass accounting
	hits, misses, evictions        int64
	requests, decisions, fallbacks int
	handlerSelfNs                  int64
	missSelects                    int
}

type serveRequest struct {
	path  string // /v1/select or /v1/batch
	model int
	insts []serve.InstanceRequest
	body  []byte
	// want is Selector.Select on the model's snapshot for each instance.
	// Every pass serves the same decisions, so the first pass's check
	// computes it for all.
	want []core.Prediction
}

const (
	// serveRounds is how often a pass requests each pool key. Only a key's
	// first request, in the first round, misses the cache.
	serveRounds = 4
	// serveBatchSize is the batch size of the CI batch load test.
	serveBatchSize = 32
	// serveBatchShare is the share of each round's instances sent in
	// batches.
	serveBatchShare = 0.25
)

// serveFallbackMsizes are the message sizes of the CI fallback load test:
// far outside every training envelope.
var serveFallbackMsizes = []int64{1 << 30, 2 << 30}

// servePool is a model's instance pool: its dataset's grid, plus the same
// node and ppn counts at the fallback message sizes.
func servePool(spec dataset.Spec) []serve.InstanceRequest {
	msizes := append(slices.Clone(spec.Msizes), serveFallbackMsizes...)
	var pool []serve.InstanceRequest
	for _, n := range spec.Nodes {
		for _, ppn := range spec.PPNs {
			for _, m := range msizes {
				pool = append(pool, serve.InstanceRequest{Nodes: n, PPN: ppn, Msize: m})
			}
		}
	}
	return pool
}

func setupServe(cfg config, tr *tracer) (instance, error) {
	dsNames, lrn := evaluateDatasets, learners
	if cfg.smoke {
		dsNames = []string{"d4"}
	}
	s := &serveBench{selections: map[serve.CacheKey]core.Prediction{}}
	for _, name := range dsNames {
		ds, err := readDataset(cfg, name, tr)
		if err != nil {
			return nil, err
		}
		mach, set, err := ds.Spec.Resolve()
		if err != nil {
			return nil, err
		}
		split, err := eval.SplitFor(mach.Name)
		if err != nil {
			return nil, err
		}
		for _, l := range lrn {
			sp := tr.begin("core.train." + l)
			sel, err := core.Train(ds, set, l, split.Full)
			if err != nil {
				return nil, err
			}
			tr.end(sp).N = int64(len(sel.Configs()) - len(sel.Quarantined()))
			data, err := sel.Snapshot(core.FingerprintFor(ds, l, split.Full))
			if err != nil {
				return nil, err
			}
			sp = tr.begin("core.decode")
			dsel, fp, err := core.DecodeSnapshot(data)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			s.models = append(s.models, &serve.Model{Name: serve.ModelName(fp), Sel: dsel, Fp: fp})
			s.pools = append(s.pools, servePool(ds.Spec))
		}
	}
	var err error
	if s.reqs, err = serveRequests(cfg.seed, s.models, s.pools); err != nil {
		return nil, err
	}
	// Warm-up: one select and one batch on a throwaway server.
	srv, err := s.server()
	if err != nil {
		return nil, err
	}
	for _, path := range []string{"/v1/select", "/v1/batch"} {
		for _, r := range s.reqs {
			if r.path == path {
				srv.Handler().ServeHTTP(httptest.NewRecorder(), r.httpRequest())
				break
			}
		}
	}
	return s, nil
}

// serveRequests builds one pass's request stream. In every round each
// model's pool is shuffled; the first serveBatchShare of it goes out in
// batches, the rest as selects, and the round's requests of all models are
// shuffled together. The seed picks the order and which keys share a
// batch, never the mix: every model gets the same requests, cache misses
// and fallbacks under every seed, because the models' costs differ
// thirtyfold and a seed that shifted the mix would move every end-to-end
// metric.
func serveRequests(seed uint64, models []*serve.Model, pools [][]serve.InstanceRequest) ([]serveRequest, error) {
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	var reqs []serveRequest
	for round := 0; round < serveRounds; round++ {
		var rr []serveRequest
		for m, pool := range pools {
			keys := slices.Clone(pool)
			rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			batches := int(math.Round(serveBatchShare * float64(len(keys)) / serveBatchSize))
			for b := 0; b < batches; b++ {
				rr = append(rr, serveRequest{path: "/v1/batch", model: m, insts: keys[b*serveBatchSize : (b+1)*serveBatchSize]})
			}
			for _, in := range keys[batches*serveBatchSize:] {
				rr = append(rr, serveRequest{path: "/v1/select", model: m, insts: []serve.InstanceRequest{in}})
			}
		}
		rng.Shuffle(len(rr), func(i, j int) { rr[i], rr[j] = rr[j], rr[i] })
		reqs = append(reqs, rr...)
	}
	for i := range reqs {
		r := &reqs[i]
		var err error
		name := models[r.model].Name
		if r.path == "/v1/batch" {
			r.body, err = json.Marshal(serve.BatchRequest{Model: name, Instances: r.insts})
		} else {
			r.body, err = json.Marshal(serve.SelectRequest{Model: name, InstanceRequest: r.insts[0]})
		}
		if err != nil {
			return nil, err
		}
	}
	return reqs, nil
}

func (r *serveRequest) httpRequest() *http.Request {
	req := httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body))
	req.Header.Set("Content-Type", "application/json")
	return req
}

// server builds a fresh server, with an empty cache of the default size,
// holding the models.
func (s *serveBench) server() (*serve.Server, error) {
	srv, err := serve.New(serve.Options{BatchWorkers: 1})
	if err != nil {
		return nil, err
	}
	return srv, srv.Registry().Install(s.models...)
}

func (s *serveBench) pass(rec *recorder, tr *tracer) {
	srv, err := s.server()
	if err != nil {
		rec.mismatch("server: %v", err)
		return
	}
	h := srv.Handler()
	reqs := make([]*http.Request, len(s.reqs))
	resps := make([]*httptest.ResponseRecorder, len(s.reqs))
	for i := range s.reqs {
		reqs[i], resps[i] = s.reqs[i].httpRequest(), httptest.NewRecorder()
	}
	var reqNs, selectNs []int64
	if tr != nil {
		reqNs, selectNs = make([]int64, len(s.reqs)), make([]int64, len(s.reqs))
	}
	rec.begin()
	for i, r := range s.reqs {
		rec.mark()
		sp := tr.beginOp("serve." + r.path[len("/v1/"):])
		h.ServeHTTP(resps[i], reqs[i])
		if tr != nil {
			reqNs[i] = tr.end(sp).dur()
		}
		var err error
		if resps[i].Code != http.StatusOK {
			err = fmt.Errorf("%s: status %d: %s", r.path, resps[i].Code, resps[i].Body.Bytes())
		}
		rec.done(err)
		if tr != nil && r.path == "/v1/select" {
			// The selection the handler made or served from cache, timed on
			// its own for core.select_us and the handler's self time.
			sel := s.models[r.model].Sel
			sp := tr.begin("core.select." + sel.Learner)
			sel.Select(r.insts[0].Nodes, r.insts[0].PPN, r.insts[0].Msize)
			selectNs[i] = tr.end(sp).dur()
		}
	}
	rec.end()

	for i := range s.reqs {
		r := &s.reqs[i]
		if r.want == nil {
			for _, in := range r.insts {
				r.want = append(r.want, s.selected(r.model, in))
			}
		}
		if resps[i].Code != http.StatusOK {
			continue
		}
		got, err := decodeDecisions(r.path, resps[i].Body.Bytes())
		if err != nil {
			rec.mismatch("%s #%d: %v", r.path, i, err)
			continue
		}
		checkServed(rec, s.models[r.model].Name, *r, got)
		if tr == nil {
			continue
		}
		s.decisions += len(got)
		for _, d := range got {
			if d.Fallback {
				s.fallbacks++
			}
		}
		if r.path == "/v1/select" && !got[0].Cached {
			s.handlerSelfNs += reqNs[i] - selectNs[i]
			s.missSelects++
		}
	}
	if tr != nil {
		h, m, e := srv.Cache().Stats()
		s.hits, s.misses, s.evictions = s.hits+h, s.misses+m, s.evictions+e
		s.requests += len(s.reqs)
	}
}

// selected is Selector.Select on the model's snapshot, computed once per
// pool key.
func (s *serveBench) selected(model int, in serve.InstanceRequest) core.Prediction {
	k := serve.CacheKey{Model: s.models[model].Name, Nodes: in.Nodes, PPN: in.PPN, Msize: in.Msize}
	p, ok := s.selections[k]
	if !ok {
		p = s.models[model].Sel.Select(in.Nodes, in.PPN, in.Msize)
		s.selections[k] = p
	}
	return p
}

// decodeDecisions returns the decisions of a select or batch response.
func decodeDecisions(path string, body []byte) ([]serve.Decision, error) {
	if path == "/v1/select" {
		var r serve.SelectResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		return []serve.Decision{r.Decision}, nil
	}
	var r serve.BatchResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	out := make([]serve.Decision, len(r.Results))
	for i, res := range r.Results {
		if res.Error != "" {
			return nil, fmt.Errorf("instance %d: %s", i, res.Error)
		}
		out[i] = res.Decision
	}
	return out, nil
}

// checkServed requires every served decision to equal Selector.Select on
// the model's snapshot.
func checkServed(rec *recorder, model string, r serveRequest, got []serve.Decision) {
	if len(got) != len(r.want) {
		rec.mismatch("%s: %d decisions for %d instances", model, len(got), len(r.want))
		return
	}
	for i, want := range r.want {
		g := got[i]
		if g.ConfigID != want.ConfigID || g.AlgID != want.AlgID || g.Label != want.Label ||
			g.Fallback != want.Fallback || g.FallbackReason != want.FallbackReason {
			rec.mismatch("%s %+v: served config %d (%s, fallback %v), Select gives %d (%s, fallback %v)",
				model, r.insts[i], g.ConfigID, g.Label, g.Fallback, want.ConfigID, want.Label, want.Fallback)
		}
	}
}

func (s *serveBench) layers(m *metrics) {
	if s.requests == 0 {
		return
	}
	if lookups := s.hits + s.misses; lookups > 0 {
		m.set("serve.cache_hit_ratio", "ratio", float64(s.hits)/float64(lookups))
	}
	m.set("serve.cache_evictions_per_req", "count", float64(s.evictions)/float64(s.requests))
	m.set("core.fallback_frac", "ratio", float64(s.fallbacks)/float64(s.decisions))
	if s.missSelects > 0 {
		m.set("serve.handler_self_us", "us", float64(s.handlerSelfNs)/1e3/float64(s.missSelects))
	}
}
