// Command perfbench is the repository's benchmark. It times the paper's
// pipeline — measurement sweeps, the vendor default decision, model fitting
// and evaluation, and runtime selection — end to end and layer by layer,
// and checks every output it times against committed references.
//
//	go run . -root .. --workload generate --seed 1 --seconds 15 --trace 0
//	go run . -root .. --workload all --seed 1 --seconds 15
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. With --trace 0 the metrics are the end-to-end ones of
// an untraced run; with --trace 1 they are the per-layer ones of a run whose
// odd passes record spans. BENCHMARK.md describes workloads, metrics and
// checks.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mpicollpred/internal/core"
)

// config is what a workload's setup needs to build its inputs.
type config struct {
	root    string // checkout root holding results/
	seed    uint64
	seconds int
	trace   bool
	// smoke selects the smallest input set, one setup and one pass; the
	// package tests use it.
	smoke bool
}

// instance is a set-up workload.
type instance interface {
	// pass runs every op of the fixed input set once. It times the ops
	// through rec and, when tr is non-nil, records spans around each layer
	// call. Outputs are checked outside the timed regions.
	pass(rec *recorder, tr *tracer)
	// layers sets the per-layer metrics only this workload can measure.
	layers(m *metrics)
}

type workload struct {
	name string
	// passSeconds is the length of one pass, checks included, as measured on
	// a 2-core x86-64 VM. With --seconds it fixes the number of whole
	// passes, so a run's work never depends on timing.
	passSeconds float64
	// setups is how many times a run sets up; setup_s is their median.
	// serve's set-up trains nine models and is run fewer times.
	setups int
	setup  func(cfg config, tr *tracer) (instance, error)
}

var workloads = []workload{
	{"generate", 4.0, 5, setupGenerate},
	{"decide", 0.8, 5, setupDecide},
	{"evaluate", 1.45, 5, setupEvaluate},
	{"serve", 1.5, 3, setupServe},
}

// passCount is the number of whole passes a run makes. A traced run makes
// as many traced passes as untraced ones.
func passCount(w workload, cfg config) int {
	n := 1
	if !cfg.smoke {
		n = max(int(math.Round(float64(cfg.seconds)/w.passSeconds)), 2)
	}
	if cfg.trace {
		n += n % 2
	}
	return n
}

// result is one workload run.
type result struct {
	Workload   string   `json:"workload"`
	Correct    bool     `json:"correct"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Metrics    *metrics `json:"metrics"`
	Mismatches []string `json:"mismatches,omitempty"`
	Note       string   `json:"note,omitempty"`
	Meta       meta     `json:"meta"`
	tr         *tracer
}

// meta is the run metadata every result records.
type meta struct {
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	NumCPU     int       `json:"nproc"`
	Commit     string    `json:"commit"`
	Seed       uint64    `json:"seed"`
	Trace      bool      `json:"trace"`
	Passes     int       `json:"passes"`
	Ops        int       `json:"ops"`
	SetupS     []float64 `json:"setup_s"`
	PassS      []float64 `json:"pass_s"` // wall time of each pass, checks included
	WallS      float64   `json:"wall_s"`
}

func run(w workload, cfg config, commit string) (*result, error) {
	// One worker for the fit pool: parallel fits would make evaluate and
	// serve set-up depend on how busy the machine's other cores are.
	core.SetFitWorkers(1)
	var (
		inst   instance
		setups []float64
		str    *tracer
	)
	setupRuns := w.setups
	if cfg.smoke {
		setupRuns = 1
	}
	for i := 0; i < setupRuns; i++ {
		inst = nil
		runtime.GC()
		if cfg.trace {
			str = newTracer()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(cfg, str); err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	passes := passCount(w, cfg)
	plain, traced := &recorder{}, &recorder{}
	var ptr *tracer
	if cfg.trace {
		ptr = newTracer()
	}
	runtime.GC()
	var passS []float64
	t0 := time.Now()
	for p := 0; p < passes; p++ {
		tp := time.Now()
		if cfg.trace && p%2 == 1 {
			traced.startPass()
			inst.pass(traced, ptr)
		} else {
			plain.startPass()
			inst.pass(plain, nil)
		}
		passS = append(passS, time.Since(tp).Seconds())
	}
	wall := time.Since(t0).Seconds()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(inst)

	mismatches := append(plain.mismatches, traced.mismatches...)
	attempted := plain.attempted + traced.attempted
	res := &result{
		Workload: w.name, Correct: len(mismatches) == 0,
		Attempted: attempted, Failed: plain.failed + traced.failed, Mismatches: mismatches,
		Meta: meta{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
			Commit: commit, Seed: cfg.seed, Trace: cfg.trace, Passes: passes, Ops: attempted,
			SetupS: setups, PassS: passS, WallS: wall},
	}
	if !cfg.trace {
		res.Metrics, res.Note = endToEnd(plain, setups, ms.HeapAlloc)
		return res, nil
	}
	res.Metrics = layerMetrics(str, ptr, plain, traced)
	inst.layers(res.Metrics)
	res.tr = ptr
	return res, nil
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: generate, decide, evaluate, serve or all")
		seed    = flag.Uint64("seed", 1, "seed of the workload's inputs")
		seconds = flag.Int("seconds", 15, "nominal measured seconds; fixes the number of whole passes")
		trace   = flag.Int("trace", 0, "1: traced run printing per-layer metrics")
		root    = flag.String("root", ".", "checkout root holding results/")
		commit  = flag.String("commit", "unknown", "commit recorded in the result")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(errors.New("--seconds must be >= 1 and --trace 0 or 1"))
	}
	cfg := config{root: *root, seed: *seed, seconds: *seconds, trace: *trace == 1}

	var chosen []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	out := filepath.Join(*root, ".bench_build", "results")
	if err := os.MkdirAll(out, 0o755); err != nil {
		fatal(err)
	}

	correct, attempted, failed, all := true, 0, 0, newMetrics()
	for _, w := range chosen {
		res, err := run(w, cfg, *commit)
		if err != nil {
			fatal(err)
		}
		report(res)
		if err := save(res, out); err != nil {
			fatal(err)
		}
		correct = correct && res.Correct
		attempted += res.Attempted
		failed += res.Failed
		for _, n := range res.Metrics.names {
			key := n
			if len(chosen) > 1 {
				key = w.name + "." + n
			}
			all.set(key, res.Metrics.vals[n].Unit, res.Metrics.vals[n].Value)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool     `json:"correct"`
		Attempted int      `json:"attempted"`
		Failed    int      `json:"failed"`
		Metrics   *metrics `json:"metrics"`
	}{correct, attempted, failed, all})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

// report prints a result for people: metadata, every metric with its unit,
// and any check that failed.
func report(r *result) {
	m := r.Meta
	fmt.Printf("== %s  seed=%d trace=%v passes=%d ops=%d wall=%.2fs  go=%s GOMAXPROCS=%d nproc=%d commit=%s\n",
		r.Workload, m.Seed, m.Trace, m.Passes, m.Ops, m.WallS, m.GoVersion, m.GOMAXPROCS, m.NumCPU, m.Commit)
	for _, n := range r.Metrics.names {
		v := r.Metrics.vals[n]
		fmt.Printf("  %-32s %14.6g %s\n", n, v.Value, v.Unit)
	}
	if r.Note != "" {
		fmt.Printf("  (%s)\n", r.Note)
	}
	fmt.Printf("  correct=%v attempted=%d failed=%d fail_frac=%g\n",
		r.Correct, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	for _, s := range r.Mismatches {
		fmt.Printf("  CHECK FAILED: %s\n", s)
	}
}

// save writes the result record and, for a traced run, its spans.
func save(r *result, dir string) error {
	trace := 0
	if r.Meta.Trace {
		trace = 1
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", r.Workload, r.Meta.Seed, trace))
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(b, '\n'), 0o644); err != nil {
		return err
	}
	if r.tr != nil {
		return r.tr.write(base + ".spans.jsonl")
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", strings.TrimSpace(err.Error()))
	os.Exit(2)
}
