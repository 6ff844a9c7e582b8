package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mpicollpred/internal/dataset"
	"mpicollpred/internal/mpilib"
	"mpicollpred/internal/netmodel"
	"mpicollpred/internal/sim"
)

// readDataset loads a committed mid-scale dataset cache.
func readDataset(cfg config, name string, tr *tracer) (*dataset.Dataset, error) {
	path := dataset.CachePath(filepath.Join(cfg.root, "results", "cache"), name, dataset.ScaleMid, "")
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // read-only; ReadCSV's error is checked
	sp := tr.begin("dataset.read_csv")
	ds, err := dataset.ReadCSV(f)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ds, nil
}

// buildTraced is mpilib.BuildProgramInto into scratch (pooled: the path of
// the measurement sweep) or mpilib.BuildProgram (the allocating path of the
// default decision) under an mpilib.build span that also records the heap
// the build allocated.
func buildTraced(tr *tracer, scratch *sim.Program, pooled bool, c mpilib.Config, topo netmodel.Topology, m int64) *sim.Program {
	sp := tr.begin("mpilib.build")
	p0 := time.Now()
	a0 := heapAllocated()
	probe := time.Since(p0)
	var prog *sim.Program
	if pooled {
		prog = mpilib.BuildProgramInto(scratch, c, topo, m, false)
	} else {
		prog = mpilib.BuildProgram(c, topo, m, false)
	}
	p1 := time.Now()
	a1 := heapAllocated()
	probe += time.Since(p1)
	s := tr.end(sp)
	s.N = int64(prog.NumOps())
	s.Bytes = int64(a1 - a0)
	s.InnerNs = int64(probe)
	return prog
}

// runTraced is sim.Engine.Run over model under a sim.run span. Cost-model
// calls take a few nanoseconds, too few to time one by one, so the run
// records them and afterwards replays them on fresh(): the same model
// brought back to its state before the run. The replay's span,
// netmodel.replay, times the run's netmodel work; it is tracing overhead and
// not part of the op.
func runTraced(tr *tracer, eng *sim.Engine, prog *sim.Program, model *netmodel.Model, start []float64,
	fresh func() *netmodel.Model) (sim.Result, error) {
	rec := &recordingModel{m: model, calls: replayBuf[:0]}
	sp := tr.begin("sim.run")
	res, err := eng.Run(prog, rec, start, nil)
	s := tr.end(sp)
	s.N = int64(res.Events)
	s.Calls = int64(len(rec.calls))
	replayBuf = rec.calls
	rp := tr.begin("netmodel.replay")
	rec.replay(fresh())
	tr.end(rp)
	return res, err
}

// replayBuf is the recorded-call storage, reused across runs.
var replayBuf []costCall

// costCall is one recorded sim.CostModel call.
type costCall struct {
	kind     uint8
	src, dst int32
	bytes    uint32
	t1, t2   float64
}

const (
	callEager uint8 = iota
	callSendEager
	callSendRendezvous
	callRecvOverhead
	callPostOverhead
	callCompute
)

// recordingModel is the sim.CostModel of the traced run: it forwards to a
// netmodel.Model and records every call.
type recordingModel struct {
	m     *netmodel.Model
	calls []costCall
}

func (r *recordingModel) Eager(bytes uint32) bool {
	r.calls = append(r.calls, costCall{kind: callEager, bytes: bytes})
	return r.m.Eager(bytes)
}

func (r *recordingModel) SendEager(src, dst int32, bytes uint32, t float64) (float64, float64) {
	r.calls = append(r.calls, costCall{callSendEager, src, dst, bytes, t, 0})
	return r.m.SendEager(src, dst, bytes, t)
}

func (r *recordingModel) SendRendezvous(src, dst int32, bytes uint32, ts, tr float64) (float64, float64) {
	r.calls = append(r.calls, costCall{callSendRendezvous, src, dst, bytes, ts, tr})
	return r.m.SendRendezvous(src, dst, bytes, ts, tr)
}

func (r *recordingModel) RecvOverhead(bytes uint32) float64 {
	r.calls = append(r.calls, costCall{kind: callRecvOverhead, bytes: bytes})
	return r.m.RecvOverhead(bytes)
}

func (r *recordingModel) PostOverhead(bytes uint32) float64 {
	r.calls = append(r.calls, costCall{kind: callPostOverhead, bytes: bytes})
	return r.m.PostOverhead(bytes)
}

func (r *recordingModel) Compute(bytes uint32) float64 {
	r.calls = append(r.calls, costCall{kind: callCompute, bytes: bytes})
	return r.m.Compute(bytes)
}

// replaySink keeps the replayed results live.
var replaySink float64

// replay makes the recorded calls on m, in order, through the same
// interface the engine uses.
func (r *recordingModel) replay(m *netmodel.Model) {
	var cm sim.CostModel = m
	acc := 0.0
	for i := range r.calls {
		c := &r.calls[i]
		switch c.kind {
		case callEager:
			if cm.Eager(c.bytes) {
				acc++
			}
		case callSendEager:
			a, b := cm.SendEager(c.src, c.dst, c.bytes, c.t1)
			acc += a + b
		case callSendRendezvous:
			a, b := cm.SendRendezvous(c.src, c.dst, c.bytes, c.t1, c.t2)
			acc += a + b
		case callRecvOverhead:
			acc += cm.RecvOverhead(c.bytes)
		case callPostOverhead:
			acc += cm.PostOverhead(c.bytes)
		case callCompute:
			acc += cm.Compute(c.bytes)
		}
	}
	replaySink += acc
}
