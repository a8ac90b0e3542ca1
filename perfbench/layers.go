package main

import (
	"repro/internal/core"
)

// layerCounts reads the simulated per-layer counters of a finished traced
// run. It runs after scenario.Summarize because Link.Stats advances the
// links' lazy integrators: the summary is rendered before anything else
// touches them.
func layerCounts(sys *core.System, measured, skipped int64, pending []float64) map[string]float64 {
	n := sys.Net
	now := n.Now()
	c := map[string]float64{}

	stepped := measured - skipped
	c["network.stepped_cycles"] = float64(stepped)
	c["network.ff_skip_ratio"] = float64(skipped) / float64(measured)
	c["network.delivered_flits"] = float64(n.DeliveredFlits())
	c["network.dropped_pkts"] = float64(n.DroppedPackets())

	var sum float64
	for _, p := range pending {
		sum += p
	}
	c["sim.pending_events_mean"] = sum / float64(len(pending))

	var routed, stalls int64
	for _, r := range n.Routers() {
		routed += r.FlitsRouted()
		for p := 0; p < r.Ports(); p++ {
			stalls += r.Output(p).CreditStalls()
		}
	}
	c["router.flits_routed"] = float64(routed)
	c["router.credit_stalls"] = float64(stalls)

	rel := n.FaultStats()
	var sent int64
	var transitions, relockFails int
	for _, ch := range n.Channels() {
		sent += ch.Flits()
		if pl := ch.PLink(); pl != nil {
			st := pl.Stats(now)
			transitions += st.Transitions
			relockFails += st.RelockFailures
		}
	}
	c["router.retransmits"] = float64(rel.Retransmits)
	c["router.crc_drops"] = float64(rel.CrcDrops)
	c["router.retransmit_ratio"] = float64(rel.Retransmits) / float64(sent)
	c["powerlink.transitions"] = float64(transitions)
	c["powerlink.relock_failures"] = float64(relockFails)

	ps := n.PolicyStats()
	c["policy.windows"] = float64(ps.Windows)
	c["policy.level_changes"] = float64(ps.Ups + ps.Downs)
	c["policy.loss_derates"] = float64(ps.LossDerates)

	rec := n.RecoveryStats()
	c["recovery.reroutes"] = float64(rec.Reroutes)
	c["recovery.dropped_packets"] = float64(rec.DroppedPackets)
	return c
}
