package main

// perLayer lists the per-layer metrics every traced run prints, in order.
// A layer a workload does not reach reports 0.
var perLayer = []struct{ name, unit string }{
	{"sim.ns_per_event", "ns"},
	{"sim.events_per_op", "count"},
	{"sim.self_share", "ratio"},
	{"mpilib.build_ns_per_simop", "ns"},
	{"mpilib.build_alloc_kb", "KB"},
	{"mpilib.build_share", "ratio"},
	{"netmodel.calls_per_event", "count"},
	{"netmodel.ns_per_call", "ns"},
	{"netmodel.share", "ratio"},
	{"bench.measure_ms", "ms"},
	{"bench.reps_per_cell", "count"},
	{"bench.exhausted_frac", "ratio"},
	{"mpilib.decide_ms", "ms"},
	{"mpilib.sims_per_decision", "count"},
	{"mpilib.decide_memo_hit_ratio", "ratio"},
	{"dataset.read_csv_ms", "ms"},
	{"dataset.lookup_ns", "ns"},
	{"core.train_ms.knn", "ms"},
	{"core.train_ms.gam", "ms"},
	{"core.train_ms.xgboost", "ms"},
	{"core.models_fit", "count"},
	{"eval.eval_ms", "ms"},
	{"eval.instances", "count"},
	{"core.select_us.knn", "us"},
	{"core.select_us.gam", "us"},
	{"core.select_us.xgboost", "us"},
	{"core.fallback_frac", "ratio"},
	{"core.decode_ms", "ms"},
	{"serve.request_us.select", "us"},
	{"serve.request_us.batch", "us"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.cache_evictions_per_req", "count"},
	{"serve.handler_self_us", "us"},
	{"trace.overhead_frac", "ratio"},
}

var learners = []string{"knn", "gam", "xgboost"}

// layerMetrics derives the per-layer metrics that follow from span totals.
// setup holds the spans of the last set-up, passes those of the traced
// passes; plain and traced time the untraced and traced passes' ops.
func layerMetrics(setup, passes *tracer, plain, traced *recorder) *metrics {
	m := newMetrics()
	for _, l := range perLayer {
		m.set(l.name, l.unit, 0)
	}
	st, pt := totals(setup.spans), totals(passes.spans)
	get := func(t map[string]*layerTotal, name string) layerTotal {
		if lt := t[name]; lt != nil {
			return *lt
		}
		return layerTotal{}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	opNs := 0.0
	for _, d := range traced.lat {
		opNs += float64(d)
	}

	// sim.run spans carry events and cost-model calls; the replays of those
	// calls time their netmodel work, which sim's self time excludes.
	// Shares are of the op time the program spent: without the replays and
	// allocation probes the trace added.
	sim := get(pt, "sim.run")
	build := get(pt, "mpilib.build")
	calls, events := float64(sim.calls), float64(sim.n)
	netNs := float64(get(pt, "netmodel.replay").dur)
	workNs := opNs - netNs - float64(build.innerNs)
	m.set("sim.ns_per_event", "ns", ratio(float64(sim.dur), events))
	m.set("sim.events_per_op", "count", ratio(events, float64(len(traced.lat))))
	m.set("sim.self_share", "ratio", ratio(float64(sim.self)-netNs, workNs))
	m.set("netmodel.calls_per_event", "count", ratio(calls, events))
	m.set("netmodel.ns_per_call", "ns", ratio(netNs, calls))
	m.set("netmodel.share", "ratio", ratio(netNs, workNs))

	m.set("mpilib.build_ns_per_simop", "ns", ratio(float64(build.self), float64(build.n)))
	m.set("mpilib.build_alloc_kb", "KB", ratio(float64(build.bytes)/1024, float64(build.count)))
	m.set("mpilib.build_share", "ratio", ratio(float64(build.self), workNs))

	meas := get(pt, "bench.measure")
	m.set("bench.measure_ms", "ms", ratio(float64(meas.dur)/1e6, float64(meas.count)))
	m.set("bench.reps_per_cell", "count", ratio(float64(meas.n), float64(meas.count)))

	dec := get(pt, "mpilib.decide")
	m.set("mpilib.decide_ms", "ms", ratio(float64(dec.dur)/1e6, float64(dec.count)))
	if dec.count > 0 {
		m.set("mpilib.sims_per_decision", "count", ratio(float64(sim.count), float64(len(traced.lat))))
	}

	m.set("dataset.read_csv_ms", "ms", float64(get(st, "dataset.read_csv").dur)/1e6)
	look := get(pt, "dataset.lookup")
	m.set("dataset.lookup_ns", "ns", ratio(float64(look.dur), float64(look.count)))

	models, trains := 0.0, 0.0
	for _, l := range learners {
		tr := get(pt, "core.train."+l)
		if tr.count == 0 {
			tr = get(st, "core.train."+l)
		}
		m.set("core.train_ms."+l, "ms", ratio(float64(tr.dur)/1e6, float64(tr.count)))
		models += float64(tr.n)
		trains += float64(tr.count)
		sel := get(pt, "core.select."+l)
		m.set("core.select_us."+l, "us", ratio(float64(sel.dur)/1e3, float64(sel.count)))
	}
	m.set("core.models_fit", "count", ratio(models, trains))

	ev := get(pt, "eval.instances")
	m.set("eval.eval_ms", "ms", ratio(float64(ev.dur)/1e6, float64(ev.count)))
	m.set("eval.instances", "count", ratio(float64(ev.n), float64(ev.count)))

	dcd := get(st, "core.decode")
	m.set("core.decode_ms", "ms", ratio(float64(dcd.dur)/1e6, float64(dcd.count)))
	for _, kind := range []string{"select", "batch"} {
		req := get(pt, "serve."+kind)
		m.set("serve.request_us."+kind, "us", ratio(float64(req.dur)/1e3, float64(req.count)))
	}

	plainNs := 0.0
	for _, d := range plain.lat {
		plainNs += float64(d)
	}
	m.set("trace.overhead_frac", "ratio",
		ratio(opNs/float64(len(traced.lat)), plainNs/float64(len(plain.lat)))-1)
	return m
}
