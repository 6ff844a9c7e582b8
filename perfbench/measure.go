package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// recorder times the ops of the measured passes. Only the regions between
// begin and end count towards wall, CPU and allocation totals; checks run
// outside them.
type recorder struct {
	lat        []time.Duration
	wall, cpu  time.Duration
	alloc      uint64
	attempted  int
	failed     int
	mismatches []string
	// starts holds the totals at the start of each pass.
	starts []passTotals

	t0, last time.Time
	cpu0     time.Duration
	alloc0   uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAllocated is the cumulative heap allocation. ReadMemStats is exact;
// runtime/metrics only counts whole spans, which is too coarse per op.
func heapAllocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// begin starts a timed region. It first collects the garbage earlier ops
// left, so an op's GC work does not depend on which op ran before it.
func (r *recorder) begin() {
	runtime.GC()
	r.alloc0 = heapAllocated()
	r.cpu0 = cpuTime()
	r.t0 = time.Now()
	r.last = r.t0
}

func (r *recorder) end() {
	r.wall += time.Since(r.t0)
	r.cpu += cpuTime() - r.cpu0
	r.alloc += heapAllocated() - r.alloc0
}

// passTotals is what a recorder has counted: ops, and the wall, CPU and
// allocation of the timed regions.
type passTotals struct {
	ops       int
	wall, cpu time.Duration
	alloc     uint64
}

func (r *recorder) totals() passTotals {
	return passTotals{len(r.lat), r.wall, r.cpu, r.alloc}
}

// startPass marks the start of a pass.
func (r *recorder) startPass() { r.starts = append(r.starts, r.totals()) }

// passes returns what each pass counted, and the index of its first op.
func (r *recorder) passes() (per []passTotals, first []int) {
	marks := append(slices.Clone(r.starts), r.totals())
	for i := 0; i+1 < len(marks); i++ {
		a, b := marks[i], marks[i+1]
		per = append(per, passTotals{b.ops - a.ops, b.wall - a.wall, b.cpu - a.cpu, b.alloc - a.alloc})
		first = append(first, a.ops)
	}
	return per, first
}

// mark starts the next op's latency clock.
func (r *recorder) mark() { r.last = time.Now() }

// done records one op, ending at the current time.
func (r *recorder) done(err error) {
	now := time.Now()
	r.lat = append(r.lat, now.Sub(r.last))
	r.last = now
	r.attempted++
	if err != nil {
		r.failed++
		r.mismatch("op failed: %v", err)
	}
}

// mismatch records a failed correctness check; the run then reports
// correct=false and exits non-zero.
func (r *recorder) mismatch(format string, args ...any) {
	if len(r.mismatches) < 20 {
		r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
	}
}

// quantile is the q-quantile of sorted xs with linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// tailQuantile is the highest quantile with at least ten samples beyond
// it, capped at p99, rounded down to a tenth of a percent.
func tailQuantile(n int) float64 {
	q := math.Floor(1000*(1-10/float64(n))) / 1000
	return max(min(q, 0.99), 0.5)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics keeps insertion order so printed lines follow the definitions.
type metrics struct {
	names []string
	vals  map[string]metric
}

func newMetrics() *metrics { return &metrics{vals: map[string]metric{}} }

func (m *metrics) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	if _, ok := m.vals[name]; !ok {
		m.names = append(m.names, name)
	}
	m.vals[name] = metric{Value: v, Unit: unit}
}

func (m *metrics) MarshalJSON() ([]byte, error) {
	b := []byte{'{'}
	for i, n := range m.names {
		if i > 0 {
			b = append(b, ',')
		}
		v := m.vals[n]
		b = fmt.Appendf(b, "%q:{\"value\":%s,\"unit\":%q}", n, strconv.FormatFloat(v.Value, 'g', -1, 64), v.Unit)
	}
	return append(b, '}'), nil
}

// endToEnd derives the end-to-end metrics of an untraced run. Rates and
// per-op costs are the median over passes of each pass's figure, and so is
// the median latency, so a few passes in a slow spell of the machine move
// them little. The tail latency is per pass too when a pass alone has ten
// ops beyond p99; otherwise it is taken over the ops of all passes.
func endToEnd(rec *recorder, setups []float64, liveHeap uint64) (*metrics, string) {
	m := newMetrics()
	m.set("setup_s", "s", median(setups))
	us := func(ds []time.Duration) []float64 {
		out := make([]float64, len(ds))
		for i, d := range ds {
			out[i] = float64(d) / 1e3
		}
		sort.Float64s(out)
		return out
	}
	per, first := rec.passes()
	minOps := len(rec.lat)
	var rate, p50, p99, cpu, alloc []float64
	for i, p := range per {
		lat := us(rec.lat[first[i] : first[i]+p.ops])
		minOps = min(minOps, p.ops)
		rate = append(rate, float64(p.ops)/p.wall.Seconds())
		p50 = append(p50, quantile(lat, 0.5))
		p99 = append(p99, quantile(lat, 0.99))
		cpu = append(cpu, float64(p.cpu)/1e3/float64(p.ops))
		alloc = append(alloc, float64(p.alloc)/1024/float64(p.ops))
	}
	all := us(rec.lat)
	n := len(all)
	m.set("ops_per_s", "1/s", median(rate))
	m.set("op_p50_us", "us", median(p50))
	var note string
	if tailQuantile(minOps) >= 0.99 {
		m.set("op_tail_us", "us", median(p99))
		note = fmt.Sprintf("op_tail_us is the median over %d passes of each pass's p99 (at least %d ops beyond it)",
			len(per), minOps-1-int(0.99*float64(minOps-1)))
	} else {
		tq := tailQuantile(n)
		m.set("op_tail_us", "us", quantile(all, tq))
		note = fmt.Sprintf("op_tail_us is p%g over %d ops of %d passes (%d beyond it)",
			100*tq, n, len(per), n-1-int(tq*float64(n-1)))
	}
	m.set("cpu_us_per_op", "us", median(cpu))
	m.set("alloc_kb_per_op", "KB", median(alloc))
	m.set("live_heap_mb", "MB", float64(liveHeap)/(1<<20))
	if n >= 100 {
		note += fmt.Sprintf("; op_p90_us=%.4g", quantile(all, 0.90))
	}
	if n >= 1000 {
		note += fmt.Sprintf("; op_p99_us=%.4g", quantile(all, 0.99))
	}
	return m, note
}
