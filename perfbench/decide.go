package main

import (
	"bufio"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"

	"mpicollpred/internal/machine"
	"mpicollpred/internal/mpilib"
	"mpicollpred/internal/netmodel"
	"mpicollpred/internal/sim"
)

// The decide workload is the Intel MPI default decision, the oracle behind
// CollectiveSet.Decide and 97% of the Table IVa run: for each instance it
// simulates every selectable configuration once, noise-free, on freshly
// allocated schedules. Each pass resolves the library afresh, so the memo
// is empty, then decides a fixed set of d5/d6/d7 test instances in seeded
// order. One op is one decision.
type decide struct {
	insts  []decideInstance
	order  []int
	golden map[string]int
	mach   machine.Machine

	// traced-pass accounting
	decisions, memoHits int
}

type decideInstance struct {
	ds   string
	coll string
	topo netmodel.Topology
	m    int64
}

func (d decideInstance) key() string {
	return fmt.Sprintf("%s,%d,%d,%d", d.ds, d.topo.Nodes, d.topo.PPN, d.m)
}

// decideDatasets are the Intel MPI datasets, all on Hydra.
var decideDatasets = []string{"d5", "d6", "d7"}

// goldenPath is the committed decision table. Regenerate it with
// `go test -run TestDecideGolden -update` in this directory.
const goldenPath = "golden/decide.csv"

// decideInstances is the fixed input set: the committed instances at node
// count 7 (held out from training) with ppn <= 8; smoke keeps ppn 1 and
// messages up to 1 KiB.
func decideInstances(cfg config, tr *tracer) ([]decideInstance, machine.Machine, error) {
	mach, err := machine.ByName("Hydra")
	if err != nil {
		return nil, mach, err
	}
	var out []decideInstance
	for _, name := range decideDatasets {
		ds, err := readDataset(cfg, name, tr)
		if err != nil {
			return nil, mach, err
		}
		if ds.Spec.Machine != mach.Name || ds.Spec.Lib != "Intel MPI" {
			return nil, mach, fmt.Errorf("%s is %s on %s, want Intel MPI on %s", name, ds.Spec.Lib, ds.Spec.Machine, mach.Name)
		}
		for _, in := range ds.Instances() {
			if in.Nodes != 7 || in.PPN > 8 || (cfg.smoke && (in.PPN > 1 || in.Msize > 1024)) {
				continue
			}
			topo, err := mach.Topo(in.Nodes, in.PPN)
			if err != nil {
				return nil, mach, err
			}
			out = append(out, decideInstance{ds: name, coll: ds.Spec.Coll, topo: topo, m: in.Msize})
		}
	}
	return out, mach, nil
}

func setupDecide(cfg config, tr *tracer) (instance, error) {
	insts, mach, err := decideInstances(cfg, tr)
	if err != nil {
		return nil, err
	}
	golden, err := readGolden(filepath.Join(cfg.root, "perfbench", goldenPath))
	if err != nil {
		return nil, err
	}
	d := &decide{insts: insts, golden: golden, mach: mach}
	d.order = rand.New(rand.NewPCG(cfg.seed, 0xdec)).Perm(len(insts))
	// Warm-up: the largest decision of each collective, so the heap
	// reaches working size before timing. Its library is thrown away.
	lib, largest := mpilib.IntelMPI(), map[string]decideInstance{}
	for _, in := range insts {
		if l, ok := largest[in.coll]; !ok || in.topo.P() > l.topo.P() || (in.topo.P() == l.topo.P() && in.m > l.m) {
			largest[in.coll] = in
		}
	}
	for coll, in := range largest {
		set, err := lib.Collective(coll)
		if err != nil {
			return nil, err
		}
		set.Decide(mach, in.topo, in.m)
	}
	return d, nil
}

// readGolden reads dataset,nodes,ppn,msize,config_id rows.
func readGolden(path string) (map[string]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // read-only
	out := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "dataset,") {
			continue
		}
		i := strings.LastIndexByte(line, ',')
		var id int
		if _, err := fmt.Sscan(line[i+1:], &id); i < 0 || err != nil {
			return nil, fmt.Errorf("%s: bad row %q", path, line)
		}
		out[line[:i]] = id
	}
	return out, sc.Err()
}

// sets resolves a fresh library, so every decision of the pass is cold.
func (d *decide) sets() (map[string]*mpilib.CollectiveSet, error) {
	lib := mpilib.IntelMPI()
	out := map[string]*mpilib.CollectiveSet{}
	for _, in := range d.insts {
		if out[in.coll] == nil {
			set, err := lib.Collective(in.coll)
			if err != nil {
				return nil, err
			}
			out[in.coll] = set
		}
	}
	return out, nil
}

func (d *decide) pass(rec *recorder, tr *tracer) {
	sets, err := d.sets()
	if err != nil {
		rec.mismatch("%v", err)
		return
	}
	got := make([]int, len(d.insts))
	rec.begin()
	for _, i := range d.order {
		in := d.insts[i]
		if tr != nil {
			got[i] = d.decideTraced(rec, tr, sets[in.coll], in)
			continue
		}
		rec.mark()
		got[i] = sets[in.coll].Decide(d.mach, in.topo, in.m)
		rec.done(nil)
	}
	rec.end()
	checkDecisions(rec, d.golden, d.insts, got)
}

// checkDecisions requires every decision to equal the golden table.
func checkDecisions(rec *recorder, golden map[string]int, insts []decideInstance, got []int) {
	for i, in := range insts {
		if want, ok := golden[in.key()]; !ok || got[i] != want {
			rec.mismatch("decide %s: config %d, golden %d (present %v)", in.key(), got[i], want, ok)
		}
	}
}

// decideTraced makes the decision twice. First the real Decide, under an
// mpilib.decide span outside the op's timing: a call faster than the
// cheapest simulation its decision needs cannot have simulated, and counts
// as a memo hit. Then the op proper, Decide spelled out through its
// children's public functions — for every selectable configuration
// BuildProgram, then Engine.Run over a noise-free netmodel.New on the
// machine's reference network, keeping the fastest — which must agree.
func (d *decide) decideTraced(rec *recorder, tr *tracer, set *mpilib.CollectiveSet, in decideInstance) int {
	sp := tr.beginOp("mpilib.decide")
	chosen := set.Decide(d.mach, in.topo, in.m)
	realNs := tr.end(sp).dur()

	rec.mark()
	op := tr.begin("op")
	eng := sim.NewEngine()
	bestID, bestT := 0, 0.0
	cheapest := int64(-1)
	for _, c := range set.Selectable() {
		prog := buildTraced(tr, nil, false, c, in.topo, in.m)
		fresh := func() *netmodel.Model { return netmodel.New(d.mach.RefNet, in.topo, 1, false) }
		res, err := runTraced(tr, eng, prog, fresh(), nil, fresh)
		// The sim.run span, recorded just before its netmodel.replay.
		if run := tr.spans[len(tr.spans)-2].dur(); cheapest < 0 || run < cheapest {
			cheapest = run
		}
		if err != nil {
			continue // as in the library: a failing schedule cannot be the default
		}
		if bestID == 0 || res.Time < bestT {
			bestID, bestT = c.ID, res.Time
		}
	}
	if bestID == 0 {
		bestID = 1
	}
	tr.end(op)
	rec.done(nil)

	d.decisions++
	if realNs < cheapest {
		d.memoHits++
	}
	if bestID != chosen {
		rec.mismatch("decide %s: Decide chose %d, its children %d", in.key(), chosen, bestID)
	}
	return chosen
}

func (d *decide) layers(m *metrics) {
	if d.decisions > 0 {
		m.set("mpilib.decide_memo_hit_ratio", "ratio", float64(d.memoHits)/float64(d.decisions))
	}
}
