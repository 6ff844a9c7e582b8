package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"mpicollpred/internal/core"
	"mpicollpred/internal/dataset"
	"mpicollpred/internal/mpilib"
	"mpicollpred/internal/serve"
)

var update = flag.Bool("update", false, "rewrite golden/decide.csv from the current tree")

func smokeConfig(trace bool) config {
	return config{root: "..", seed: 7, seconds: 1, trace: trace, smoke: true}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60},  // overlaps a: union 10..60
		{Name: "c", Parent: 0, Start: 90, End: 120}, // clipped to the parent: 90..100
		{Name: "d", Parent: 1, Start: 15, End: 20},  // grandchild: only a's self shrinks
		{Name: "mpilib.build", Parent: -1, Start: 200, End: 300, InnerNs: 40},
		{Name: "x", Parent: 5, Start: 210, End: 230}, // child and inner time both count
	}
	got := selfTimes(spans)
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5, 100 - 20 - 40, 20}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	tot := totals(spans)
	if lt := tot["op"]; lt.count != 1 || lt.dur != 100 || lt.self != 40 {
		t.Errorf("totals[op] = %+v", *lt)
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{20, 0.5}, {100, 0.9}, {280, 0.964}, {1000, 0.99}, {500000, 0.99}} {
		if got := tailQuantile(c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
		if beyond := float64(c.n) * (1 - tailQuantile(c.n)); c.n >= 20 && beyond < 10-1e-9 {
			t.Errorf("n=%d: only %.1f samples beyond the tail", c.n, beyond)
		}
	}
}

// TestEndToEndPerPass requires rates, costs and the median to be medians
// over passes, and the tail to be per pass only when a pass has ten ops
// beyond its p99.
func TestEndToEndPerPass(t *testing.T) {
	record := func(opsPerPass int) *recorder {
		rec := &recorder{}
		for _, ms := range []int{1, 4, 2} { // every op of a pass takes ms
			rec.startPass()
			for i := 0; i < opsPerPass; i++ {
				rec.lat = append(rec.lat, time.Duration(ms)*time.Millisecond)
			}
			rec.wall += time.Duration(opsPerPass*ms) * time.Millisecond
			rec.cpu += time.Duration(opsPerPass*ms) * time.Millisecond / 2
			rec.alloc += uint64(opsPerPass * ms * 1024)
		}
		return rec
	}
	m, _ := endToEnd(record(1000), []float64{1, 3, 2}, 1<<20)
	for name, want := range map[string]float64{"setup_s": 2, "ops_per_s": 500, "op_p50_us": 2000,
		"op_tail_us": 2000, "cpu_us_per_op": 1000, "alloc_kb_per_op": 2, "live_heap_mb": 1} {
		if got := m.vals[name].Value; math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	// Ten ops a pass: the tail is over all thirty, in the slowest pass.
	if m, _ := endToEnd(record(10), []float64{1}, 1); m.vals["op_tail_us"].Value <= 2000 {
		t.Errorf("pooled op_tail_us = %v, want above the per-pass median 2000", m.vals["op_tail_us"].Value)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the program must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload on its smallest input set, untraced and
// traced, and requires the checks to pass and the printed metrics to be
// exactly those BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	spec := readBenchmarkJSON(t)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(declared) {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", names, declared)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				res, err := run(w, smokeConfig(trace), "test")
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, res.Mismatches)
				}
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				var got, exp []string
				for _, n := range res.Metrics.names {
					got = append(got, n+" "+res.Metrics.vals[n].Unit)
				}
				for _, m := range want {
					exp = append(exp, m.Name+" "+m.Unit)
				}
				if strings.Join(got, ",") != strings.Join(exp, ",") {
					t.Errorf("metrics\n got  %v\n want %v", got, exp)
				}
				if !trace {
					for _, n := range res.Metrics.names {
						if res.Metrics.vals[n].Value <= 0 {
							t.Errorf("%s = %v, want > 0", n, res.Metrics.vals[n].Value)
						}
					}
				}
			})
		}
	}
}

// TestTracedLayers requires each workload's traced run to reach the layers
// it exists for.
func TestTracedLayers(t *testing.T) {
	want := map[string][]string{
		"generate": {"sim.ns_per_event", "mpilib.build_ns_per_simop", "netmodel.ns_per_call", "bench.measure_ms", "bench.reps_per_cell"},
		"decide":   {"sim.ns_per_event", "mpilib.build_alloc_kb", "mpilib.decide_ms", "mpilib.sims_per_decision"},
		"evaluate": {"dataset.read_csv_ms", "dataset.lookup_ns", "core.train_ms.knn", "core.models_fit", "eval.eval_ms", "eval.instances", "core.select_us.knn"},
		"serve": {"core.train_ms.xgboost", "core.select_us.gam", "core.decode_ms", "serve.request_us.select",
			"serve.request_us.batch", "serve.cache_hit_ratio", "serve.handler_self_us"},
	}
	for _, w := range workloads {
		res, err := run(w, smokeConfig(true), "test")
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range want[w.name] {
			if v := res.Metrics.vals[n].Value; v <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, n, v)
			}
		}
	}
}

// TestTracedCountsRepeat requires the counts a speed-only change must leave
// identical to repeat exactly between two traced runs.
func TestTracedCountsRepeat(t *testing.T) {
	counts := []string{"sim.events_per_op", "netmodel.calls_per_event", "mpilib.sims_per_decision",
		"bench.reps_per_cell", "core.models_fit", "eval.instances"}
	for _, w := range workloads[:3] {
		var first *metrics
		for i := 0; i < 2; i++ {
			res, err := run(w, smokeConfig(true), "test")
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = res.Metrics
				continue
			}
			for _, n := range counts {
				if a, b := first.vals[n].Value, res.Metrics.vals[n].Value; a != b {
					t.Errorf("%s: %s %v then %v", w.name, n, a, b)
				}
			}
		}
	}
}

func TestGenerateCheckRejectsFlippedTime(t *testing.T) {
	slices, err := generateSlices(true)
	if err != nil {
		t.Fatal(err)
	}
	spec := slices[0]
	ref, err := readDataset(smokeConfig(false), spec.Name, nil)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.Generate(spec, genOptions(spec), nil)
	if err != nil {
		t.Fatal(err)
	}
	var rec recorder
	checkSamples(&rec, ref, spec, ds.Samples)
	if len(rec.mismatches) != 0 {
		t.Fatalf("fresh samples rejected: %v", rec.mismatches)
	}
	ds.Samples[3].Time = math.Float64frombits(math.Float64bits(ds.Samples[3].Time) ^ 1)
	checkSamples(&rec, ref, spec, ds.Samples)
	if len(rec.mismatches) != 1 {
		t.Fatalf("one flipped time bit: %d mismatches, want 1: %v", len(rec.mismatches), rec.mismatches)
	}
}

func decideAll(t *testing.T) ([]decideInstance, []int) {
	t.Helper()
	insts, mach, err := decideInstances(config{root: ".."}, nil)
	if err != nil {
		t.Fatal(err)
	}
	lib := mpilib.IntelMPI()
	got := make([]int, len(insts))
	for i, in := range insts {
		set, err := lib.Collective(in.coll)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = set.Decide(mach, in.topo, in.m)
	}
	return insts, got
}

// TestDecideGolden compares the decisions with golden/decide.csv; with
// -update it rewrites the file from the current tree.
func TestDecideGolden(t *testing.T) {
	insts, got := decideAll(t)
	if *update {
		var b strings.Builder
		b.WriteString("# Intel MPI default decisions of the decide workload.\n")
		b.WriteString("# Regenerate: go test -run TestDecideGolden -update (in perfbench/)\n")
		b.WriteString("dataset,nodes,ppn,msize,config_id\n")
		rows := make([]string, len(insts))
		for i, in := range insts {
			rows[i] = fmt.Sprintf("%s,%d", in.key(), got[i])
		}
		sort.Strings(rows)
		b.WriteString(strings.Join(rows, "\n") + "\n")
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := readGolden(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(golden) != len(insts) {
		t.Errorf("golden has %d rows, workload decides %d instances", len(golden), len(insts))
	}
	var rec recorder
	checkDecisions(&rec, golden, insts, got)
	if len(rec.mismatches) != 0 {
		t.Fatalf("%v", rec.mismatches)
	}
	got[5]++
	checkDecisions(&rec, golden, insts, got)
	if len(rec.mismatches) != 1 {
		t.Fatalf("one changed decision: %d mismatches, want 1", len(rec.mismatches))
	}
}

func TestEvaluateCheckRejectsChangedSpeedup(t *testing.T) {
	table, err := readTable4a(filepath.Join("..", "results", "table4a.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if table["d1/knn"] != "1.58" || table["d4/xgboost"] != "1.07" || len(table) != 27 {
		t.Fatalf("table4a parsed as %v", table)
	}
	c := evalCell{ds: &dataset.Dataset{Spec: dataset.Spec{Name: "d1"}}, learner: "knn", want: table["d1/knn"]}
	var rec recorder
	checkSpeedup(&rec, c, 1.5849)
	if len(rec.mismatches) != 0 {
		t.Fatalf("1.5849 rejected against 1.58: %v", rec.mismatches)
	}
	checkSpeedup(&rec, c, 1.5851)
	if len(rec.mismatches) != 1 {
		t.Fatalf("1.5851 accepted against 1.58")
	}
}

func TestServeCheckRejectsWrongDecision(t *testing.T) {
	inst, err := setupServe(smokeConfig(false), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := inst.(*serveBench)
	r := s.reqs[0]
	m := s.models[r.model]
	p := m.Sel.Select(r.insts[0].Nodes, r.insts[0].PPN, r.insts[0].Msize)
	r.want = []core.Prediction{p}
	d := serve.Decision{ConfigID: p.ConfigID, AlgID: p.AlgID, Label: p.Label, Fallback: p.Fallback, FallbackReason: p.FallbackReason}
	var rec recorder
	checkServed(&rec, m.Name, serveRequest{insts: r.insts[:1], want: r.want[:1]}, []serve.Decision{d})
	if len(rec.mismatches) != 0 {
		t.Fatalf("correct decision rejected: %v", rec.mismatches)
	}
	other := m.Sel.Configs()[0]
	if other.ID == d.ConfigID {
		other = m.Sel.Configs()[1]
	}
	d.ConfigID, d.AlgID, d.Label = other.ID, other.AlgID, other.Label()
	checkServed(&rec, m.Name, serveRequest{insts: r.insts[:1], want: r.want[:1]}, []serve.Decision{d})
	if len(rec.mismatches) != 1 {
		t.Fatalf("wrong decision accepted")
	}
}

// TestServeMixIgnoresSeed requires two seeds to give every model the same
// selects and batches, cache misses on each path, and fallbacks, in a
// different order.
func TestServeMixIgnoresSeed(t *testing.T) {
	cfg := smokeConfig(false)
	inst, err := setupServe(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := inst.(*serveBench)
	other, err := serveRequests(cfg.seed+1, s.models, s.pools)
	if err != nil {
		t.Fatal(err)
	}
	mix := func(reqs []serveRequest) map[string]int {
		counts := map[string]int{}
		seen := map[serve.CacheKey]bool{}
		for _, r := range reqs {
			name := s.models[r.model].Name
			counts[name+" "+r.path]++
			for _, in := range r.insts {
				k := serve.CacheKey{Model: name, Nodes: in.Nodes, PPN: in.PPN, Msize: in.Msize}
				if !seen[k] {
					seen[k] = true
					counts[name+" "+r.path+" miss"]++
				}
				if s.selected(r.model, in).Fallback {
					counts[name+" fallback"]++
				}
			}
		}
		return counts
	}
	a, b := mix(s.reqs), mix(other)
	if !maps.Equal(a, b) {
		t.Fatalf("the seed changed the mix:\n%v\n%v", a, b)
	}
	for _, m := range s.models {
		if a[m.Name+" fallback"] == 0 || a[m.Name+" /v1/batch"] == 0 || a[m.Name+" /v1/select miss"] == 0 {
			t.Errorf("%s: mix %v lacks fallbacks, batches or misses", m.Name, a)
		}
	}
	same := true
	for i := range s.reqs {
		same = same && string(s.reqs[i].body) == string(other[i].body)
	}
	if same {
		t.Error("two seeds gave the same request order")
	}
}
