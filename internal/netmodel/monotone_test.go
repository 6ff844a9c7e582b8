package netmodel_test

import (
	"math/rand/v2"
	"testing"

	"mpicollpred/internal/machine"
	"mpicollpred/internal/netmodel"
)

// TestClocksMonotone checks the sim.CostModel contract that makes a bounded
// run's cut exact: no returned time is earlier than an input time, and every
// overhead and compute cost is >= 0. Each model takes a long random call
// sequence, so NIC and memory-bus state builds up across transfers.
func TestClocksMonotone(t *testing.T) {
	topo := netmodel.Topology{Nodes: 4, PPN: 3}
	for _, mach := range machine.All() {
		for _, net := range []struct {
			name string
			prm  netmodel.Params
		}{{"Net", mach.Net}, {"RefNet", mach.RefNet}} {
			for _, noisy := range []bool{false, true} {
				rng := rand.New(rand.NewPCG(7, 11))
				model := netmodel.New(net.prm, topo, 3, noisy)
				clock := 0.0
				for i := 0; i < 2000; i++ {
					src, dst := int32(rng.IntN(topo.P())), int32(rng.IntN(topo.P()))
					bytes := uint32(rng.Int64N(4 << 20))
					if i%4 == 0 {
						bytes = uint32(rng.IntN(64))
					}
					clock += rng.Float64() * 1e-5
					ts, tr := clock, clock+(rng.Float64()-0.5)*1e-5
					atLeast := func(what string, got float64, inputs ...float64) {
						for _, in := range inputs {
							if got < in {
								t.Fatalf("%s %s noisy=%v call %d: %s %v < input %v (bytes %d, %d->%d)",
									mach.Name, net.name, noisy, i, what, got, in, bytes, src, dst)
							}
						}
					}
					sd, arr := model.SendEager(src, dst, bytes, ts)
					atLeast("SendEager senderDone", sd, ts)
					atLeast("SendEager arrival", arr, ts)
					sd, arr = model.SendRendezvous(src, dst, bytes, ts, tr)
					atLeast("SendRendezvous senderDone", sd, ts, tr)
					atLeast("SendRendezvous arrival", arr, ts, tr)
					atLeast("RecvOverhead", model.RecvOverhead(bytes), 0)
					atLeast("PostOverhead", model.PostOverhead(bytes), 0)
					atLeast("Compute", model.Compute(bytes), 0)
				}
			}
		}
	}
}
