package network

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// TestChaosRandomTransitions injects failure-like disturbances: random
// bit-rate step requests are forced onto random links (bypassing the
// policy) while traffic flows. Flow control must hold: no packet is lost,
// duplicated, or wedged, and flit conservation is exact. The generator is
// stoppable, so after the chaos phase the network must drain exactly —
// every injected packet delivered, not one more, not one less.
func TestChaosRandomTransitions(t *testing.T) {
	cfg := smallConfig()
	cfg.PowerAware = false // disable policy so chaos owns the levels
	cfg.Link.LevelRates = []float64{5, 6, 7, 8, 9, 10}
	gen := traffic.NewStoppable(traffic.NewUniform(cfg.Nodes(), 0.3, 5))
	n := MustNew(cfg, gen)
	chaos := sim.NewRNG(99)

	for step := 0; step < 60_000; step++ {
		n.Step()
		if step%50 == 0 {
			ch := n.Channels()[chaos.Intn(len(n.Channels()))]
			dir := +1
			if chaos.Bernoulli(0.5) {
				dir = -1
			}
			ch.PLink().RequestStep(n.Now(), dir)
		}
	}
	// Quiesce: stop injection, no further disturbances, drain everything.
	gen.Stop()
	if !n.RunUntilQuiescent(n.Now() + 200_000) {
		t.Fatalf("chaos wedged the network: not quiescent by cycle %d (injected %d, delivered %d)",
			n.Now(), n.InjectedPackets(), n.DeliveredPackets())
	}
	if inj, del := n.InjectedPackets(), n.DeliveredPackets(); inj != del {
		t.Fatalf("exact drain violated: injected %d, delivered %d", inj, del)
	}
	if n.DeliveredPackets() == 0 {
		t.Fatal("nothing delivered under chaos")
	}
	if err := n.Audit(); err != nil {
		t.Fatalf("audit after drain: %v", err)
	}
}

// TestChaosOffLinks does the same with on/off-capable links: links are
// randomly switched off mid-traffic and must wake on demand without losing
// anything.
func TestChaosOffLinks(t *testing.T) {
	cfg := smallConfig()
	cfg.PowerAware = false
	cfg.Link.LevelRates = []float64{10}
	cfg.Link.OffEnabled = true
	cfg.Link.OffPowerW = 1e-3
	cfg.Link.OffWakeCycles = 200
	gen := traffic.NewStoppable(traffic.NewUniform(cfg.Nodes(), 0.2, 5))
	n := MustNew(cfg, gen)
	chaos := sim.NewRNG(7)

	for step := 0; step < 40_000; step++ {
		n.Step()
		if step%200 == 0 {
			// Try to switch a random link off.
			ch := n.Channels()[chaos.Intn(len(n.Channels()))]
			ch.PLink().RequestStep(n.Now(), -1)
		}
	}
	gen.Stop()
	if !n.RunUntilQuiescent(n.Now() + 200_000) {
		t.Fatalf("off-link chaos wedged the network: not quiescent by cycle %d (injected %d, delivered %d)",
			n.Now(), n.InjectedPackets(), n.DeliveredPackets())
	}
	if inj, del := n.InjectedPackets(), n.DeliveredPackets(); inj != del {
		t.Fatalf("exact drain violated: injected %d delivered %d", inj, del)
	}
}

// TestFlitConservation: delivered flit count equals the sum of delivered
// packet sizes exactly.
func TestFlitConservation(t *testing.T) {
	cfg := smallConfig()
	gen := traffic.NewUniform(cfg.Nodes(), 0.3, 7)
	n := MustNew(cfg, gen)
	n.RunTo(30_000)
	// Every delivered packet is 7 flits; packets mid-ejection may have
	// delivered some flits but not yet their tail.
	flits, tails := n.DeliveredFlits(), n.DeliveredPackets()*7
	if flits < tails {
		t.Errorf("delivered flits %d below packets×size %d", flits, tails)
	}
	inFlight := n.InjectedPackets() - n.DeliveredPackets()
	if flits-tails > inFlight*7 {
		t.Errorf("excess flits %d exceed in-flight packets' worth (%d)", flits-tails, inFlight*7)
	}
}

// TestFabricEnergySubset: fabric energy is a strict subset of total link
// energy.
func TestFabricEnergySubset(t *testing.T) {
	cfg := smallConfig()
	gen := traffic.NewUniform(cfg.Nodes(), 0.2, 5)
	n := MustNew(cfg, gen)
	n.RunTo(20_000)
	fab, tot := n.FabricEnergyJ(), n.LinkEnergyJ()
	if fab <= 0 || fab >= tot {
		t.Errorf("fabric energy %g not within (0, total %g)", fab, tot)
	}
}

// TestNICQueueLenReflectsBacklog: saturating one node's injection shows up
// in its NIC queue length.
func TestNICQueueLenReflectsBacklog(t *testing.T) {
	cfg := smallConfig()
	cfg.PowerAware = false
	gen := &burstGen{node: 2, dst: 5, count: 50, size: 20}
	n := MustNew(cfg, gen)
	n.RunTo(30) // all 50 packets created at cycle 1, few flits sent yet
	if q := n.NICQueueLen(2); q < 40 {
		t.Errorf("NIC queue %d, want most of the 50-packet burst", q)
	}
	if !n.RunUntilQuiescent(80_000) {
		t.Fatalf("burst did not drain by cycle %d", n.Now())
	}
	if q := n.NICQueueLen(2); q != 0 {
		t.Errorf("NIC queue %d after drain, want 0", q)
	}
}

// TestAuditDuringChaos runs the conservation audit repeatedly while
// traffic flows, random transitions fire, and the fault injector corrupts
// flits, fails relocks, and takes a link hard-down — so audits observe
// links mid-replay, mid-retry-backoff, and inside a failure window.
func TestAuditDuringChaos(t *testing.T) {
	cfg := smallConfig()
	cfg.Fault = fault.Config{
		BERFloor:       2e-4, // ~0.3% per-flit corruption: constant replay
		RelockFailProb: 0.3,
		LinkFailures:   []fault.LinkFailure{{Link: 2, At: 8_000, RepairAt: 14_000}},
	}
	gen := traffic.NewUniform(cfg.Nodes(), 0.3, 5)
	n := MustNew(cfg, gen)
	chaos := sim.NewRNG(3)
	for step := 0; step < 30_000; step++ {
		n.Step()
		if step%50 == 0 {
			ch := n.Channels()[chaos.Intn(len(n.Channels()))]
			dir := +1
			if chaos.Bernoulli(0.5) {
				dir = -1
			}
			ch.PLink().RequestStep(n.Now(), dir)
		}
		if step%500 == 0 {
			if err := n.Audit(); err != nil {
				t.Fatalf("audit failed at cycle %d: %v", n.Now(), err)
			}
		}
	}
	rel := n.FaultStats()
	if rel.CorruptedFlits == 0 || rel.Retransmits == 0 {
		t.Errorf("fault injection inactive during audit chaos: %+v", rel)
	}
}

// TestAuditQuiescent: after the network drains, credits must be exactly
// restored (sum == depth, no slack needed).
func TestAuditQuiescent(t *testing.T) {
	cfg := smallConfig()
	gen := &burstGen{node: 0, dst: 7, count: 20, size: 8}
	n := MustNew(cfg, gen)
	if !n.RunUntilQuiescent(100_000) {
		t.Fatalf("setup: burst did not quiesce by cycle %d", n.Now())
	}
	if n.DeliveredPackets() != 20 {
		t.Fatalf("setup: delivered %d of 20", n.DeliveredPackets())
	}
	if err := n.Audit(); err != nil {
		t.Fatalf("audit after quiesce: %v", err)
	}
	for r := 0; r < cfg.Routers(); r++ {
		rt := n.Routers()[r]
		for p := 0; p < cfg.PortsPerRouter(); p++ {
			out := rt.Output(p)
			if out.Channel() == nil {
				continue
			}
			for v := 0; v < cfg.VCs; v++ {
				if out.Credits(v) != cfg.BufDepth {
					t.Errorf("router %d port %d vc %d: %d credits after quiesce, want %d",
						r, p, v, out.Credits(v), cfg.BufDepth)
				}
			}
		}
	}
}

// TestShardedCreditAudit drives the Fig 6 hot-spot shape on the default
// 8×8×8 system at several shard counts and audits credit conservation
// along the way and after the run. Credit returns cross shard boundaries:
// the downstream router's shard schedules them and the upstream router's
// shard runs them, so any per-VC counter both sides touched would race
// (run under -race) and drift out of the audit's bracket. The audit reads
// the credits in flight from the pending wheel events instead.
//
//	go test -race ./internal/network -run ShardedCreditAudit -netshards 2 -count=3
func TestShardedCreditAudit(t *testing.T) {
	shardCounts := []int{2, 4}
	if *netShards > 0 {
		shardCounts = []int{*netShards}
	}
	const length = 8_000
	for _, k := range shardCounts {
		cfg := DefaultConfig()
		cfg.Shards = k
		gen := &traffic.Hotspot{
			Nodes: cfg.Nodes(),
			Phases: traffic.Schedule{
				{Until: length / 4, NetworkRate: 2.0},
				{Until: length / 2, NetworkRate: 3.8},
				{Until: length, NetworkRate: 4.2},
			},
			HotNode:   cfg.NodeID(3, 5, 4),
			HotWeight: 4,
			Size:      5,
		}
		n := MustNew(cfg, gen)
		for n.Now() < length {
			n.RunTo(n.Now() + 1_000)
			if err := n.Audit(); err != nil {
				n.Close()
				t.Fatalf("shards=%d: audit at cycle %d: %v", k, n.Now(), err)
			}
		}
		if n.DeliveredPackets() == 0 {
			t.Errorf("shards=%d: no packets delivered", k)
		}
		n.Close()
	}
}
