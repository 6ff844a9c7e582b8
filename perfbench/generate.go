package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"mpicollpred/internal/bench"
	"mpicollpred/internal/dataset"
	"mpicollpred/internal/mpilib"
	"mpicollpred/internal/netmodel"
	"mpicollpred/internal/sim"
)

// The generate workload is serial dataset generation, the repository's
// largest cost and all simulator: it regenerates held-out slices of two
// committed mid-scale Open MPI grids, d4 (Allreduce on Jupiter, short
// schedules) and d1 (Bcast on Hydra, whose segmented schedules run to
// hundreds of thousands of events). One op is one instance grid point: every
// configuration of one (nodes, ppn, msize), timed between Generate's
// progress callbacks. The seed orders the slices; samples do not depend on
// order because every cell's noise is seeded from its content.
type generate struct {
	slices []dataset.Spec
	order  []int
	ref    map[string]*dataset.Dataset

	// traced-pass accounting
	cells, exhausted int
	eng              *sim.Engine
	prog             *sim.Program
	start            []float64
}

// generateSlices is the fixed input set: node count 7 (held out from
// training on both machines), one Generate call per ppn.
func generateSlices(smoke bool) ([]dataset.Spec, error) {
	want := []struct {
		name string
		ppns []int
	}{{"d4", []int{1, 4, 8, 16}}, {"d1", []int{1, 8}}}
	if smoke {
		want[0].ppns, want[1].ppns = []int{1}, []int{1}
	}
	var out []dataset.Spec
	for _, w := range want {
		spec, err := dataset.SpecByName(w.name, dataset.ScaleMid)
		if err != nil {
			return nil, err
		}
		for _, ppn := range w.ppns {
			s := spec
			s.Nodes, s.PPNs = []int{7}, []int{ppn}
			out = append(out, s)
		}
	}
	return out, nil
}

func setupGenerate(cfg config, tr *tracer) (instance, error) {
	slices, err := generateSlices(cfg.smoke)
	if err != nil {
		return nil, err
	}
	g := &generate{slices: slices, ref: map[string]*dataset.Dataset{}}
	for _, s := range slices {
		if g.ref[s.Name] != nil {
			continue
		}
		if g.ref[s.Name], err = readDataset(cfg, s.Name, tr); err != nil {
			return nil, err
		}
	}
	g.order = rand.New(rand.NewPCG(cfg.seed, 0x6e6)).Perm(len(slices))
	// Warm-up: one grid point per slice, at the middle message size, so
	// the schedule storage and heap reach working size before timing.
	for _, s := range slices {
		w := s
		w.Msizes = w.Msizes[len(w.Msizes)/2 : len(w.Msizes)/2+1]
		if _, err := dataset.Generate(w, genOptions(w), nil); err != nil {
			return nil, err
		}
	}
	return g, nil
}

func genOptions(spec dataset.Spec) bench.Options {
	opts := dataset.DefaultGenOptions(spec, dataset.ScaleMid)
	opts.Workers = 1
	return opts
}

func (g *generate) pass(rec *recorder, tr *tracer) {
	for _, i := range g.order {
		spec := g.slices[i]
		var (
			samples []dataset.Sample
			err     error
		)
		rec.begin()
		if tr == nil {
			var ds *dataset.Dataset
			ds, err = dataset.Generate(spec, genOptions(spec), func(done, total int) { rec.done(nil) })
			if ds != nil {
				samples = ds.Samples
			}
		} else {
			samples, err = g.generateTraced(rec, tr, spec)
		}
		rec.end()
		if err != nil {
			tr.abort()
			rec.done(err)
			continue
		}
		checkSamples(rec, g.ref[spec.Name], spec, samples)
	}
}

// checkSamples requires every sample's time to be bit-equal to its row in
// the committed cache, and every grid cell to be present.
func checkSamples(rec *recorder, ref *dataset.Dataset, spec dataset.Spec, samples []dataset.Sample) {
	_, set, err := spec.Resolve()
	if err != nil {
		rec.mismatch("%s: %v", spec.Name, err)
		return
	}
	if want := spec.NumInstances() * len(set.Configs); len(samples) != want {
		rec.mismatch("%s n=%v ppn=%v: %d samples, want %d", spec.Name, spec.Nodes, spec.PPNs, len(samples), want)
	}
	for _, s := range samples {
		t, ok := ref.Lookup(s.ConfigID, s.Nodes, s.PPN, s.Msize)
		if !ok || math.Float64bits(t) != math.Float64bits(s.Time) {
			rec.mismatch("%s cfg=%d n=%d ppn=%d m=%d: time %v, committed %v (present %v)",
				spec.Name, s.ConfigID, s.Nodes, s.PPN, s.Msize, s.Time, t, ok)
		}
	}
}

// generateTraced is dataset.Generate for one slice spelled out through its
// children's public functions, in Generate's nodes → ppn → msize → config
// order: one measurement per cell, each a bench.Runner.MeasureCapped done
// by hand (see measureTraced). On error spans are left open for the caller
// to abort.
func (g *generate) generateTraced(rec *recorder, tr *tracer, spec dataset.Spec) ([]dataset.Sample, error) {
	mach, set, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	opts := genOptions(spec)
	if g.eng == nil {
		g.eng = sim.NewEngine()
	}
	var out []dataset.Sample
	for _, n := range spec.Nodes {
		for _, ppn := range spec.PPNs {
			topo, err := mach.Topo(n, ppn)
			if err != nil {
				return nil, err
			}
			for _, m := range spec.Msizes {
				op := tr.beginOp("op")
				rec.mark()
				reps := adaptReps(opts.MaxReps, spec.Coll, topo.P(), m)
				for _, c := range set.Configs {
					seed := sim.Seed(nameSeed(spec.Name), uint64(c.ID), uint64(n), uint64(ppn), uint64(m))
					meas, err := g.measureTraced(tr, opts, c, mach.Net, topo, m, seed, reps)
					if err != nil {
						return nil, err
					}
					out = append(out, dataset.Sample{ConfigID: c.ID, AlgID: c.AlgID, Nodes: n, PPN: ppn, Msize: m,
						Time: meas.Median(), Reps: meas.Reps(), Consumed: meas.Consumed, Exhausted: meas.Exhausted})
				}
				tr.end(op)
				rec.done(nil)
			}
		}
	}
	return out, nil
}

// measureTraced is bench.Runner.MeasureCapped under the options dataset
// generation uses (no fault plan, no outlier retries): build the schedule
// into recycled storage, then per repetition reseed the cost model, draw
// the ranks' clock-sync jitter and run the engine, until the repetition cap
// or the time budget.
func (g *generate) measureTraced(tr *tracer, opts bench.Options, c mpilib.Config, prm netmodel.Params,
	topo netmodel.Topology, m int64, seed uint64, maxReps int) (bench.Measurement, error) {
	sp := tr.begin("bench.measure")
	g.prog = buildTraced(tr, g.prog, true, c, topo, m)
	if cap(g.start) < topo.P() {
		g.start = make([]float64, topo.P())
	}
	start := g.start[:topo.P()]
	model := netmodel.New(prm, topo, seed, true)
	var meas bench.Measurement
	for rep := 0; rep < maxReps; rep++ {
		repSeed := sim.Seed(seed, uint64(rep)+1)
		model.Reset(repSeed)
		jrng := sim.NewRNG(sim.Seed(repSeed, 0xA11CE))
		for i := range start {
			j := jrng.Norm() * opts.SyncJitter
			if j < 0 {
				j = -j
			}
			start[i] = j
		}
		res, err := runTraced(tr, g.eng, g.prog, model, start, func() *netmodel.Model {
			model.Reset(repSeed)
			return model
		})
		if err != nil {
			return meas, fmt.Errorf("%s: %w", c.Label(), err)
		}
		meas.Times = append(meas.Times, res.Time)
		meas.Consumed += res.Time
		if opts.MaxTime > 0 && meas.Consumed >= opts.MaxTime {
			meas.Exhausted = len(meas.Times) < maxReps
			break
		}
	}
	tr.end(sp).N = int64(meas.Reps())
	g.cells++
	if meas.Exhausted {
		g.exhausted++
	}
	return meas, nil
}

func (g *generate) layers(m *metrics) {
	if g.cells > 0 {
		m.set("bench.exhausted_frac", "ratio", float64(g.exhausted)/float64(g.cells))
	}
}

// adaptReps is the dataset package's repetition cap for expensive
// instances (unexported there); the traced run's bit-equality check against
// the committed cache fails if the two drift apart.
func adaptReps(maxReps int, coll string, p int, m int64) int {
	reps := maxReps
	switch {
	case m >= 1<<20:
		reps = 1
	case m >= 1<<18 && reps > 2:
		reps = 2
	}
	if coll == mpilib.Alltoall && p >= 512 {
		reps = 1
	}
	return reps
}

// nameSeed is the dataset package's per-dataset seed component (FNV-1a of
// the name, unexported there); drift fails the same check.
func nameSeed(name string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 0x100000001b3
	}
	return h
}
