package network

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Audit verifies the network's conservation invariants at the current
// cycle. It is meant for tests and debugging — it walks every router and
// link, so it is far too slow to run per cycle in experiments.
//
// Checked invariants:
//
//  1. Credit conservation per (link, VC): the upstream output's free
//     credits plus the downstream buffer occupancy plus flits in flight on
//     the wire plus credits in flight back never exceed the buffer depth,
//     and never drop below zero. (Transient in-flight flits/credits make
//     exact equality unobservable from outside, so the audit brackets the
//     sum instead.)
//  2. Buffer occupancy within capacity.
//  3. No negative credit counters.
//
// It returns an error describing the first violation found. A failure also
// triggers the telemetry flight-recorder dump (when enabled): the recent
// event timeline is the post-mortem for a conservation violation.
func (n *Network) Audit() error {
	err := n.audit()
	if err != nil && n.telem != nil {
		n.telem.Record(telemetry.Event{At: n.now, Kind: telemetry.EventAuditFail, Link: -1, Router: -1})
		n.telem.TriggerDump(n.now, "audit_fail")
	}
	return err
}

func (n *Network) audit() error {
	cfg := n.cfg
	for r, rt := range n.routers {
		for p := 0; p < cfg.PortsPerRouter(); p++ {
			out := rt.Output(p)
			if out.Channel() == nil {
				continue // unconnected mesh edge
			}
			for v := 0; v < cfg.VCs; v++ {
				c := out.Credits(v)
				if c < 0 {
					return fmt.Errorf("network: router %d port %d vc %d has negative credits %d", r, p, v, c)
				}
				if c > cfg.BufDepth {
					return fmt.Errorf("network: router %d port %d vc %d has %d credits > depth %d", r, p, v, c, cfg.BufDepth)
				}
			}
		}
		// Input buffers within capacity.
		for p := 0; p < cfg.PortsPerRouter(); p++ {
			for v := 0; v < cfg.VCs; v++ {
				b := rt.InputBuffer(p, v)
				if b.Len() > b.Cap() {
					return fmt.Errorf("network: router %d input %d vc %d over capacity", r, p, v)
				}
			}
		}
	}
	// Credit conservation across inter-router links: upstream credits +
	// downstream occupancy must bracket the depth once in-flight slack (at
	// most 2 flits on the wire + the credits in flight) is allowed. The
	// credits in flight are the pending credit-return events on the wheel,
	// counted per handler id; at the step boundary every staged schedule
	// has reached the wheel.
	inFlight := make(map[uint64]int)
	n.wheel.Each(func(_ sim.Cycle, e sim.Entry) {
		if sim.HandlerKind(e.ID) == sim.HRouterCredit {
			inFlight[e.ID]++
		}
	})
	for r := range n.routers {
		x, y := cfg.routerXY(r)
		neigh := [][3]int{
			{DirE, DirW, cfg.RouterAt(minInt(x+1, cfg.MeshW-1), y)},
			{DirW, DirE, cfg.RouterAt(maxInt(x-1, 0), y)},
			{DirS, DirN, cfg.RouterAt(x, minInt(y+1, cfg.MeshH-1))},
			{DirN, DirS, cfg.RouterAt(x, maxInt(y-1, 0))},
		}
		for _, h := range neigh {
			if h[2] == r {
				continue // edge of the mesh: no link wired
			}
			up := n.routers[r].Output(cfg.meshPort(h[0]))
			down := n.routers[h[2]]
			// With link-level reliability, flits granted (credits held)
			// but not yet delivered — corrupted, lost to a down window,
			// or awaiting replay — widen the bracket. OutstandingFlits
			// counts them across VCs, so apply it to each VC's bound
			// conservatively; the upper bound (no credit re-materialises,
			// no flit delivered twice) stays exact.
			// The reliable receive path holds accepted flits for one cycle
			// in the rx pipeline register; those widen the bracket too,
			// as do credit returns already scheduled but not yet
			// delivered (a killed packet's discard puts one per flit in
			// flight at once, so the per-VC count is exact, not a
			// constant).
			slack := 2 + up.Channel().OutstandingFlits() + up.Channel().RxPending()
			for v := 0; v < cfg.VCs; v++ {
				vcSlack := slack + inFlight[down.CreditID(cfg.meshPort(h[1]), v)]
				sum := up.Credits(v) + down.InputBuffer(cfg.meshPort(h[1]), v).Len()
				if sum > cfg.BufDepth || sum < cfg.BufDepth-vcSlack {
					return fmt.Errorf("network: link router %d dir %d vc %d: credits+occupancy = %d, want within [%d,%d]",
						r, h[0], v, sum, cfg.BufDepth-vcSlack, cfg.BufDepth)
				}
			}
		}
	}
	return nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
