package main

import (
	"bufio"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"mpicollpred/internal/core"
	"mpicollpred/internal/dataset"
	"mpicollpred/internal/eval"
	"mpicollpred/internal/machine"
	"mpicollpred/internal/mpilib"
	"mpicollpred/internal/tablefmt"
)

// The evaluate workload is the paper's tuning step: Table IVa cells on the
// Open MPI datasets d1, d2 and d4 (all but d1/xgboost, see setupEvaluate),
// read from the committed caches. One op is one eval.Evaluate call for a
// (dataset, learner) pair on the full split;
// it trains through core.Train on a one-worker fit pool. The Open MPI
// default is rule-based, so nothing is simulated.
type evaluate struct {
	cells []evalCell
	order []int

	// traced-pass accounting
	selects, fallbacks int
}

type evalCell struct {
	ds          *dataset.Dataset
	mach        machine.Machine
	set         *mpilib.CollectiveSet
	learner     string
	train, test []int
	want        string // the committed Table IVa entry
}

var evaluateDatasets = []string{"d1", "d2", "d4"}

func setupEvaluate(cfg config, tr *tracer) (instance, error) {
	table, err := readTable4a(filepath.Join(cfg.root, "results", "table4a.txt"))
	if err != nil {
		return nil, err
	}
	dsNames, lrn := evaluateDatasets, learners
	if cfg.smoke {
		dsNames, lrn = []string{"d4"}, []string{"knn"}
	}
	e := &evaluate{}
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
			if name == "d1" && l == "xgboost" {
				// Left out: at 2.4 s it is half a pass, and without it the
				// two gam cells of d2 and d4, near-equal in cost, sit at
				// the middle of the sorted ops and the xgboost cells of d2
				// and d4 at the tail, so neither percentile falls between
				// op kinds. serve's set-up still fits it.
				continue
			}
			want, ok := table[name+"/"+l]
			if !ok {
				return nil, fmt.Errorf("table4a has no %s entry for %s", l, name)
			}
			e.cells = append(e.cells, evalCell{ds, mach, set, l, split.Full, split.Test, want})
		}
	}
	e.order = rand.New(rand.NewPCG(cfg.seed, 0xe7a1)).Perm(len(e.cells))
	// Warm-up: one call per learner on the smallest dataset.
	for _, c := range e.cells {
		if c.ds.Spec.Name == dsNames[len(dsNames)-1] {
			if _, err := eval.Evaluate(c.ds, c.mach, c.set, c.learner, c.train, c.test); err != nil {
				return nil, err
			}
		}
	}
	return e, nil
}

// readTable4a maps "<dataset>/<learner>" to the printed speedup.
func readTable4a(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // read-only
	labels := map[string]string{"KNN": "knn", "GAM": "gam", "XGBoost": "xgboost"}
	var header []string
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		switch {
		case len(fields) > 1 && fields[0] == "method":
			header = fields
		case len(header) > 0 && len(fields) == len(header) && labels[fields[0]] != "":
			for i := 1; i < len(fields); i++ {
				out[header[i]+"/"+labels[fields[0]]] = fields[i]
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no Table IVa rows", path)
	}
	return out, nil
}

func (e *evaluate) pass(rec *recorder, tr *tracer) {
	for _, i := range e.order {
		c := e.cells[i]
		var (
			speedup float64
			err     error
		)
		rec.begin()
		if tr == nil {
			var ev *eval.Evaluation
			ev, err = eval.Evaluate(c.ds, c.mach, c.set, c.learner, c.train, c.test)
			rec.done(err)
			if err == nil {
				speedup = ev.MeanSpeedup()
			}
		} else if speedup, err = e.evaluateTraced(rec, tr, c); err != nil {
			tr.abort()
			rec.done(err)
		}
		rec.end()
		if err == nil {
			checkSpeedup(rec, c, speedup)
		}
	}
}

// checkSpeedup requires the mean speedup to print as the committed entry.
func checkSpeedup(rec *recorder, c evalCell, speedup float64) {
	if got := tablefmt.F(speedup, 2); got != c.want {
		rec.mismatch("evaluate %s/%s: mean speedup %s, table4a %s", c.ds.Spec.Name, c.learner, got, c.want)
	}
}

// evaluateTraced is eval.Evaluate spelled out through its children's public
// functions: core.Train, then for every test instance in (nodes, ppn,
// msize) order Dataset.Best, the library default, Dataset.Lookup of the
// default, Selector.Select and Dataset.Lookup of the prediction. It returns
// the mean speedup, summed in Evaluate's order. On error the op is left
// open for the caller to abort and record.
func (e *evaluate) evaluateTraced(rec *recorder, tr *tracer, c evalCell) (float64, error) {
	rec.mark()
	op := tr.beginOp("op")
	sp := tr.begin("core.train." + c.learner)
	sel, err := core.Train(c.ds, c.set, c.learner, c.train)
	if err != nil {
		return 0, err
	}
	tr.end(sp).N = int64(len(sel.Configs()) - len(sel.Quarantined()))

	inTest := map[int]bool{}
	for _, n := range c.test {
		inTest[n] = true
	}
	instances := c.ds.Instances()
	sort.Slice(instances, func(i, j int) bool {
		a, b := instances[i], instances[j]
		if a.Nodes != b.Nodes {
			return a.Nodes < b.Nodes
		}
		if a.PPN != b.PPN {
			return a.PPN < b.PPN
		}
		return a.Msize < b.Msize
	})
	lookup := func(id int, in dataset.Instance) (float64, bool) {
		sp := tr.begin("dataset.lookup")
		t, ok := c.ds.Lookup(id, in.Nodes, in.PPN, in.Msize)
		tr.end(sp)
		return t, ok
	}
	evs := tr.begin("eval.instances")
	sum, n := 0.0, 0
	for _, in := range instances {
		if !inTest[in.Nodes] {
			continue
		}
		sp := tr.begin("dataset.lookup")
		_, _, ok := c.ds.Best(c.set, in.Nodes, in.PPN, in.Msize)
		tr.end(sp)
		topo, err := c.mach.Topo(in.Nodes, in.PPN)
		if err != nil {
			return 0, err
		}
		if !ok {
			return 0, fmt.Errorf("instance %+v: no measurements", in)
		}
		defT, ok1 := lookup(c.set.Decide(c.mach, topo, in.Msize), in)
		sp = tr.begin("core.select." + c.learner)
		pred := sel.Select(in.Nodes, in.PPN, in.Msize)
		tr.end(sp)
		predT, ok2 := lookup(pred.ConfigID, in)
		if !ok1 || !ok2 {
			return 0, fmt.Errorf("instance %+v: default or predicted configuration unmeasured", in)
		}
		sum += defT / predT
		n++
		e.selects++
		if pred.Fallback {
			e.fallbacks++
		}
	}
	tr.end(evs).N = int64(n)
	tr.end(op)
	rec.done(nil)
	return sum / float64(n), nil
}

func (e *evaluate) layers(m *metrics) {
	if e.selects > 0 {
		m.set("core.fallback_frac", "ratio", float64(e.fallbacks)/float64(e.selects))
	}
}
