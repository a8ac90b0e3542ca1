package network

import (
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// The sharded simulation core (DESIGN.md §6g). The mesh is partitioned into
// K contiguous column tiles; every router, NIC, and node link belongs to
// exactly one shard, and only E/W mesh links cross shard boundaries. All
// timing constants give a one-cycle conservative lookahead (the earliest a
// cycle-t action can affect any other actor is t+1), so each cycle is one
// parallel region: the coordinator pulls the cycle's events from the global
// keyed wheel in canonical (Key, Seq) order, hands each shard its
// contiguous slice, and the shards run events + injections + NIC and output
// phases over disjoint state. Side effects that cross shards — wheel
// schedules, down-notifications, telemetry, deliveries — are staged in
// per-shard spools and drained by the coordinator after the join, in orders
// that are provably independent of K (fixed shard order for canonically
// ordered spools, an explicit sort by link id for the rest).

// stagedEv is one wheel schedule requested during a shard's window,
// replayed against the global wheel at the cycle barrier.
type stagedEv struct {
	at  sim.Cycle
	key uint64
	id  uint64
}

// downNote records a watchdog escalation: link li is down until `until`.
type downNote struct {
	link  int
	until sim.Cycle
}

// deliveredPkt defers the OnDeliver hook (and the pool recycle behind it)
// to the coordinator, preserving the hook's single-threaded contract.
type deliveredPkt struct {
	p   *router.Packet
	lat sim.Cycle
}

// shard owns one column tile of the mesh: its routers, NICs, node links,
// and every outbound mesh channel. It implements router.Scheduler for them.
// All fields are touched only by the shard's own window (between barriers)
// or by the coordinator (outside the parallel region); the two never
// overlap, so no field needs atomics.
type shard struct {
	n   *Network
	idx int

	// entries is this shard's slice of the cycle's canonical event order,
	// assigned by the coordinator before the region.
	//optolint:derived transient: assigned and consumed within one Step, nil at the boundary
	entries []sim.Entry

	// staged collects wheel schedules; the coordinator replays them in
	// shard order, which — because every ordering key is produced by one
	// shard, in a window-position order that K cannot change — assigns
	// sequence numbers in a K-invariant order per key.
	//optolint:derived drained every cycle; ExportState refuses undrained spools, so it is empty at the boundary
	staged []stagedEv

	activeOuts []*router.Output
	activeNICs []*NIC
	//optolint:derived work-list swap scratch, holds no state across cycles
	spareOuts []*router.Output // second buffer for the work-list swap
	//optolint:derived work-list swap scratch, holds no state across cycles
	spareNICs []*NIC

	inj  injHeap
	pool router.Pool // per-shard free list: packets are freed where they die

	// Measurement counters, summed lazily by the Network accessors.
	injectedPkts     int64
	deliveredPkts    int64
	deliveredFlits   int64
	latCount         int64
	latSum           int64
	latMin, latMax   sim.Cycle
	headLatCount     int64
	headLatSum       int64
	latHist          stats.Histogram
	reroutes         int64
	misroutes        int64
	unreachableDrops int64

	// wantScan notes that something activated this window; the coordinator
	// aggregates it into one watchdog-scan arming decision per cycle.
	//optolint:derived consumed by the coordinator every cycle, always false at the boundary
	wantScan bool

	// Spools drained by the coordinator at the end of the cycle. All four
	// are empty at every step boundary — ExportState refuses undrained
	// spools — so restore has nothing to rebuild.
	//optolint:derived drained every cycle; empty at the boundary (ExportState enforces it)
	flightMailbox []telemetry.Event // flight-recorder events, sorted by link on drain
	//optolint:derived drained every cycle; empty at the boundary (ExportState enforces it)
	downMailbox []downNote // escalated link resets, sorted by link on drain
	//optolint:derived drained every cycle; empty at the boundary (ExportState enforces it)
	latVals []sim.Cycle // measured latencies for the telemetry histogram
	//optolint:derived drained every cycle; empty at the boundary (ExportState enforces it)
	deliveries []deliveredPkt // packets awaiting the OnDeliver hook
}

// Schedule implements router.Sched: stage the request for the barrier.
func (s *shard) Schedule(at sim.Cycle, key, id uint64) {
	if sim.Debug {
		sim.Assertf(key != 0, "shard %d: scheduling into the coordinator band (key 0)", s.idx)
		// Determinism requires each ordering key to be *produced* by exactly
		// one shard — identified by the key's src field, not its owner. The
		// owner (the actor whose window runs the event) is legitimately on
		// another shard: a boundary channel's delivery key is owned by the
		// downstream router but staged by the upstream shard driving the
		// channel, and a credit-return key is owned by the upstream router
		// but staged by the downstream one.
		src := uint32(key) & sim.MaxActor
		base := s.n.chanSrc(0)
		if src >= base {
			li := int(src - base)
			sim.Assertf(li < len(s.n.chanOwner) && s.n.chanOwner[li] == s,
				"shard %d: scheduling key %#x produced by link %d's owning shard", s.idx, key, li)
		} else {
			sim.Assertf(s.n.shardOfActor(src) == s.idx,
				"shard %d: scheduling key %#x produced by shard %d", s.idx, key, s.n.shardOfActor(src))
		}
	}
	s.staged = append(s.staged, stagedEv{at: at, key: key, id: id})
}

// ActivateOutput implements router.Scheduler.
func (s *shard) ActivateOutput(o *router.Output) {
	if !o.Active() {
		o.SetActive(true)
		s.activeOuts = append(s.activeOuts, o)
	}
	if s.n.rec != nil {
		s.wantScan = true
	}
}

func (s *shard) activateNIC(nc *NIC) {
	if !nc.active {
		nc.active = true
		s.activeNICs = append(s.activeNICs, nc)
	}
	if s.n.rec != nil {
		s.wantScan = true
	}
}

// runCycle is one shard's window for cycle now: its slice of the canonical
// event order, then source injections, then the NIC and switch-allocation
// phases — the same four phases the sequential engine ran globally.
func (s *shard) runCycle(now sim.Cycle) {
	n := s.n

	// 1. Timed events: flit deliveries, credit returns, pipeline
	//    eligibility, channel/NIC wake-ups.
	for _, e := range s.entries {
		n.fire(e.ID, now)
	}
	s.entries = nil

	// 2. New traffic.
	for s.inj.len() > 0 && s.inj.top().at <= now {
		ev := s.inj.pop()
		nc := n.nics[ev.node]
		nc.enqueue(pktDesc{created: ev.at, dst: ev.dst, size: ev.size})
		s.injectedPkts++
		s.activateNIC(nc)
		if at, dst, size, ok := n.gen.Next(int(ev.node), ev.at, n.rngs[ev.node]); ok {
			s.inj.push(injEvent{at: at, node: ev.node, dst: int32(dst), size: int32(size)})
		}
	}

	// 3. Injection: each active NIC may start serialising one flit.
	// Processing can re-activate entries, so the retained list must use a
	// different backing array than the one being iterated.
	nics := s.activeNICs
	s.activeNICs = s.spareNICs[:0]
	for _, nc := range nics {
		if nc.tryInject(now) {
			s.activeNICs = append(s.activeNICs, nc)
		}
	}
	s.spareNICs = nics[:0]

	// 4. Switch allocation: each active output may grant one flit.
	outs := s.activeOuts
	s.activeOuts = s.spareOuts[:0]
	for _, o := range outs {
		if o.TryGrant(now) {
			s.activeOuts = append(s.activeOuts, o)
		}
	}
	s.spareOuts = outs[:0]
}

// Actor numbering. Actor ids are per-column blocks — column x holds its H
// routers then its H*NodesPerRack NICs — so a shard's actors form one
// contiguous id range and shardOfActor is monotone in the id. That makes
// the canonical (Key, Seq) order shard-nested: a sorted cycle partitions
// into contiguous per-shard slices, and concatenating per-shard spools in
// shard order reproduces the canonical global order at every K. Channels
// get src-only ids above all owners (they never own events). Actor 0 is
// the coordinator band.

// actorsPerCol is routers-per-column + NICs-per-column.
func (c Config) actorsPerCol() int { return c.MeshH * (1 + c.NodesPerRack) }

// routerActor returns router r's actor id.
func (n *Network) routerActor(r int) uint32 {
	x, y := n.cfg.routerXY(r)
	return uint32(1 + x*n.perCol + y)
}

// nicActor returns the actor id of node's NIC.
func (n *Network) nicActor(node int) uint32 {
	x, y := n.cfg.routerXY(n.cfg.nodeRouter(node))
	return uint32(1 + x*n.perCol + n.cfg.MeshH + y*n.cfg.NodesPerRack + n.cfg.nodeLocal(node))
}

// chanSrc returns the src-only key id of global link li.
func (n *Network) chanSrc(li int) uint32 {
	return uint32(1 + n.cfg.MeshW*n.perCol + li)
}

// shardOfActor maps a router/NIC actor id to its shard.
func (n *Network) shardOfActor(a uint32) int {
	return (int(a) - 1) / n.perCol / n.shardWidth
}

// shardOfRouter maps a router to its shard by mesh column.
func (n *Network) shardOfRouter(r int) int {
	x, _ := n.cfg.routerXY(r)
	return x / n.shardWidth
}

// Shards returns the configured shard count the core is running with.
func (n *Network) Shards() int { return len(n.shards) }

// Close releases the worker pool. Safe to call multiple times; required in
// tests that build many sharded networks (the CLI's workers die with the
// process).
func (n *Network) Close() {
	if n.runner != nil {
		n.runner.Close()
		n.runner = nil
	}
}
