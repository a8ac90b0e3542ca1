package network

import (
	"fmt"
	"sort"

	"repro/internal/fault"
	"repro/internal/policy"
	"repro/internal/powerlink"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// This file is the network orchestrator's checkpoint surface. A snapshot is
// taken between Steps, when every cross-shard spool (staged schedules, down
// notes, flight events, deliveries) is drained — the coordinator barrier is
// the only point at which the complete state is a plain tree of values. A
// restore target is a freshly constructed Network with the same Config and
// generator: construction rebuilds all wiring and closures, and RestoreState
// overwrites only the dynamic state.

// PktDescState is one queued NIC injection descriptor.
type PktDescState struct {
	Created sim.Cycle
	Dst     int32
	Size    int32
}

// NICState is one NIC's mutable state.
type NICState struct {
	PktSeq      int64
	Credits     []int
	Queue       []PktDescState
	CurPktID    int64 // 0 = no packet mid-serialisation
	CurSeq      int32
	CurVC       int
	Active      bool
	WakePending bool
}

// InjEventState is one pending source injection.
type InjEventState struct {
	At   sim.Cycle
	Node int32
	Dst  int32
	Size int32
}

// OutputRef identifies a router output port.
type OutputRef struct {
	Router int
	Port   int
}

// ShardState is one shard's counters, injection heap, and work lists. The
// injection events are exported canonically sorted by (At, Node): the heap's
// internal layout is history-dependent, and heap order only breaks ties
// among different nodes, whose same-cycle processing commutes — so a
// canonical rebuild is behaviour-identical. The work lists are exported in
// list order, which persists across cycles and is part of the state.
type ShardState struct {
	Inj []InjEventState

	InjectedPkts     int64
	DeliveredPkts    int64
	DeliveredFlits   int64
	LatCount         int64
	LatSum           int64
	LatMin           sim.Cycle
	LatMax           sim.Cycle
	HeadLatCount     int64
	HeadLatSum       int64
	LatHist          stats.HistogramState
	Reroutes         int64
	Misroutes        int64
	UnreachableDrops int64

	ActiveOuts []OutputRef
	ActiveNICs []int
}

// RecoveryState is the recovery subsystem's mutable state. The reachability
// table is a pure function of the liveness table and is recomputed on
// restore rather than serialized.
type RecoveryState struct {
	Live       [][4]bool
	ScanArmed  bool
	WdReroutes int64
	WdDrops    int64
	Recomputes int64
}

// State is the complete mutable state of a Network at a step boundary.
type State struct {
	Now            sim.Cycle
	NextPolicyTick sim.Cycle
	MeasureFrom    sim.Cycle
	WdDropped      int64
	FFSkips        int64
	FFCycles       int64

	// Packets is the table of every live packet, sorted by ID; all packet
	// references elsewhere in the snapshot resolve into it.
	Packets []router.PacketState

	Routers     []router.RouterState
	Channels    []router.ChannelState
	Links       []powerlink.State
	Controllers []policy.PolicyState
	// PolicyTrace is the regret recorder's accumulated trace, nil unless
	// the run records one.
	PolicyTrace *policy.TraceState
	NICs        []NICState
	Shards      []ShardState

	NodeRNGs []sim.RNGState
	RouteRNG sim.RNGState

	Fault     *fault.InjectorState
	Recovery  *RecoveryState
	Telemetry *telemetry.RegistryState

	Wheel sim.WheelState
}

// ExportState captures the network's complete mutable state. It must be
// called between Steps (never mid-cycle) and does not mutate simulation
// state — an auto-checkpointing run continues unperturbed.
func (n *Network) ExportState() (*State, error) {
	st := &State{
		Now:            n.now,
		NextPolicyTick: n.nextPolicyTick,
		MeasureFrom:    n.measureFrom,
		WdDropped:      n.wdDropped,
		FFSkips:        n.ffSkips,
		FFCycles:       n.ffCycles,
		RouteRNG:       n.routeRNG.State(),
	}

	// Packet table, filled as the per-component exports walk their flit
	// references. Dedup by ID; ID 0 is reserved for "no packet".
	table := make(map[int64]*router.Packet)
	collect := func(p *router.Packet) {
		if p.ID == 0 {
			panic("network: live packet with ID 0 in checkpoint")
		}
		table[p.ID] = p
	}

	for _, r := range n.routers {
		st.Routers = append(st.Routers, r.ExportState(collect))
	}
	for _, ch := range n.channels {
		st.Channels = append(st.Channels, ch.ExportState(collect))
		st.Links = append(st.Links, ch.PLink().ExportState())
	}
	for _, c := range n.controllers {
		st.Controllers = append(st.Controllers, c.ExportPolicy())
	}
	if n.policyRec != nil {
		ts := n.policyRec.ExportState()
		st.PolicyTrace = &ts
	}
	for _, nc := range n.nics {
		ns := NICState{
			PktSeq:      nc.pktSeq,
			Credits:     append([]int(nil), nc.credits...),
			CurSeq:      nc.curSeq,
			CurVC:       nc.curVC,
			Active:      nc.active,
			WakePending: nc.wakePending,
		}
		if nc.cur != nil {
			collect(nc.cur)
			ns.CurPktID = nc.cur.ID
		}
		for i := 0; i < nc.q.n; i++ {
			d := nc.q.buf[(nc.q.head+i)%len(nc.q.buf)]
			ns.Queue = append(ns.Queue, PktDescState{Created: d.created, Dst: d.dst, Size: d.size})
		}
		st.NICs = append(st.NICs, ns)
	}

	outRef := make(map[*router.Output]OutputRef)
	for rid, r := range n.routers {
		for p := 0; p < r.Ports(); p++ {
			outRef[r.Output(p)] = OutputRef{Router: rid, Port: p}
		}
	}
	for _, s := range n.shards {
		if len(s.staged) != 0 || len(s.downMailbox) != 0 || len(s.flightMailbox) != 0 ||
			len(s.latVals) != 0 || len(s.deliveries) != 0 {
			return nil, fmt.Errorf("network: shard %d has undrained spools — checkpoint must run at a step boundary", s.idx)
		}
		ss := ShardState{
			InjectedPkts:     s.injectedPkts,
			DeliveredPkts:    s.deliveredPkts,
			DeliveredFlits:   s.deliveredFlits,
			LatCount:         s.latCount,
			LatSum:           s.latSum,
			LatMin:           s.latMin,
			LatMax:           s.latMax,
			HeadLatCount:     s.headLatCount,
			HeadLatSum:       s.headLatSum,
			LatHist:          s.latHist.ExportState(),
			Reroutes:         s.reroutes,
			Misroutes:        s.misroutes,
			UnreachableDrops: s.unreachableDrops,
		}
		for _, e := range s.inj.ev {
			ss.Inj = append(ss.Inj, InjEventState{At: e.at, Node: e.node, Dst: e.dst, Size: e.size})
		}
		sort.Slice(ss.Inj, func(i, j int) bool {
			if ss.Inj[i].At != ss.Inj[j].At {
				return ss.Inj[i].At < ss.Inj[j].At
			}
			return ss.Inj[i].Node < ss.Inj[j].Node
		})
		for _, o := range s.activeOuts {
			ss.ActiveOuts = append(ss.ActiveOuts, outRef[o])
		}
		for _, nc := range s.activeNICs {
			ss.ActiveNICs = append(ss.ActiveNICs, nc.node)
		}
		st.Shards = append(st.Shards, ss)
	}

	if n.rngs != nil {
		for _, r := range n.rngs {
			st.NodeRNGs = append(st.NodeRNGs, r.State())
		}
	}
	if n.injector != nil {
		is := n.injector.ExportState()
		st.Fault = &is
	}
	if rec := n.rec; rec != nil {
		rs := RecoveryState{
			Live:       make([][4]bool, len(rec.live)),
			ScanArmed:  rec.scanArmed,
			WdReroutes: rec.wdReroutes,
			WdDrops:    rec.wdDrops,
			Recomputes: rec.recomputes,
		}
		copy(rs.Live, rec.live)
		st.Recovery = &rs
	}
	if n.telem != nil {
		ts := n.telem.ExportState()
		st.Telemetry = &ts
	}

	st.Wheel = n.wheel.ExportState()
	if st.Wheel.Now != n.now-1 {
		return nil, fmt.Errorf("network: wheel clock %d out of phase with network cycle %d — checkpoint must run at a step boundary", st.Wheel.Now, n.now)
	}

	ids := make([]int64, 0, len(table))
	for id := range table {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		st.Packets = append(st.Packets, router.ExportPacket(table[id]))
	}
	return st, nil
}

// resolveHandler maps a handler descriptor to the event closure it names,
// dispatching on the descriptor's kind (see sim.HandlerID). It is the one
// table behind both Step's dispatch (fire) and the wheel restore, which
// rejects every descriptor it does not resolve.
func (n *Network) resolveHandler(id uint64) (sim.Event, bool) {
	obj := int(sim.HandlerObj(id))
	switch sim.HandlerKind(id) {
	case sim.HChanDeliver, sim.HChanAccept, sim.HChanFeedback, sim.HChanPump, sim.HChanWatchdog:
		if obj < len(n.channels) {
			return n.channels[obj].ResolveHandler(id)
		}
	case sim.HRouterHOL, sim.HRouterCredit, sim.HRouterWake:
		if obj < len(n.routers) {
			return n.routers[obj].ResolveHandler(id)
		}
	case sim.HNICWake:
		if obj < len(n.nics) {
			return n.nics[obj].wakeEvt, true
		}
	case sim.HRecRefresh:
		if rec := n.rec; rec != nil && obj < len(n.meshOut) {
			r, dir := obj, int(sim.HandlerParam(id))
			if dir < 4 && rec.refreshEvt[r][dir] != nil {
				return rec.refreshEvt[r][dir], true
			}
		}
	case sim.HRecScan:
		if n.rec != nil {
			return n.rec.scanEvt, true
		}
	case sim.HTelemSample, sim.HTelemMarker:
		if n.telem != nil {
			return n.telem.ResolveHandler(id)
		}
	case sim.HPolicyTimer:
		if obj < len(n.policyTimers) && n.policyTimers[obj] != nil {
			return n.policyTimers[obj], true
		}
	}
	return nil, false
}

// RestoreState overwrites this network's mutable state from a snapshot. The
// network must be freshly constructed from the same Config (and generator);
// restoring into a network that has already stepped is invalid.
func (n *Network) RestoreState(st *State) error {
	if len(st.Routers) != len(n.routers) || len(st.Channels) != len(n.channels) ||
		len(st.Links) != len(n.channels) || len(st.NICs) != len(n.nics) ||
		len(st.Shards) != len(n.shards) || len(st.Controllers) != len(n.controllers) {
		return fmt.Errorf("network: snapshot shape (%d routers, %d channels, %d links, %d NICs, %d shards, %d controllers) does not match network (%d, %d, %d, %d, %d, %d)",
			len(st.Routers), len(st.Channels), len(st.Links), len(st.NICs), len(st.Shards), len(st.Controllers),
			len(n.routers), len(n.channels), len(n.channels), len(n.nics), len(n.shards), len(n.controllers))
	}
	if (st.Fault != nil) != (n.injector != nil) {
		return fmt.Errorf("network: snapshot fault injection %v, network %v", st.Fault != nil, n.injector != nil)
	}
	if (st.Recovery != nil) != (n.rec != nil) {
		return fmt.Errorf("network: snapshot recovery %v, network %v", st.Recovery != nil, n.rec != nil)
	}
	if (st.Telemetry != nil) != (n.telem != nil) {
		return fmt.Errorf("network: snapshot telemetry %v, network %v", st.Telemetry != nil, n.telem != nil)
	}
	if (st.PolicyTrace != nil) != (n.policyRec != nil) {
		return fmt.Errorf("network: snapshot trace recording %v, network %v", st.PolicyTrace != nil, n.policyRec != nil)
	}
	if (len(st.NodeRNGs) > 0) != (n.rngs != nil) || len(st.NodeRNGs) > 0 && len(st.NodeRNGs) != len(n.rngs) {
		return fmt.Errorf("network: snapshot has %d node RNGs, network has %d", len(st.NodeRNGs), len(n.rngs))
	}
	if st.Wheel.Now != st.Now-1 {
		return fmt.Errorf("network: snapshot wheel clock %d out of phase with cycle %d", st.Wheel.Now, st.Now)
	}

	// Packet table: allocate one struct per live packet.
	table := make(map[int64]*router.Packet, len(st.Packets))
	for _, ps := range st.Packets {
		if ps.ID == 0 {
			return fmt.Errorf("network: snapshot packet table contains ID 0")
		}
		if _, dup := table[ps.ID]; dup {
			return fmt.Errorf("network: snapshot packet table has duplicate ID %d", ps.ID)
		}
		p := new(router.Packet)
		ps.ApplyTo(p)
		table[ps.ID] = p
	}
	resolve := func(id int64) (*router.Packet, error) {
		p, ok := table[id]
		if !ok {
			return nil, fmt.Errorf("network: snapshot references unknown packet %d", id)
		}
		return p, nil
	}

	for i, r := range n.routers {
		if err := r.RestoreState(st.Routers[i], resolve); err != nil {
			return err
		}
	}
	for i, ch := range n.channels {
		if err := ch.RestoreState(st.Channels[i], resolve); err != nil {
			return fmt.Errorf("link %d: %w", i, err)
		}
		if err := ch.PLink().RestoreState(st.Links[i]); err != nil {
			return fmt.Errorf("link %d: %w", i, err)
		}
	}
	for i, c := range n.controllers {
		if err := c.RestorePolicy(st.Controllers[i]); err != nil {
			return fmt.Errorf("controller %d: %w", i, err)
		}
	}
	if st.PolicyTrace != nil {
		if err := n.policyRec.RestoreState(*st.PolicyTrace); err != nil {
			return err
		}
	}
	for i, nc := range n.nics {
		ns := &st.NICs[i]
		if len(ns.Credits) != len(nc.credits) {
			return fmt.Errorf("network: NIC %d snapshot has %d VCs, NIC has %d", i, len(ns.Credits), len(nc.credits))
		}
		nc.pktSeq = ns.PktSeq
		copy(nc.credits, ns.Credits)
		nc.q.buf = nc.q.buf[:0]
		nc.q.head, nc.q.n = 0, 0
		for _, d := range ns.Queue {
			nc.q.push(pktDesc{created: d.Created, dst: d.Dst, size: d.Size})
		}
		nc.cur = nil
		if ns.CurPktID != 0 {
			p, err := resolve(ns.CurPktID)
			if err != nil {
				return fmt.Errorf("NIC %d: %w", i, err)
			}
			nc.cur = p
		}
		nc.curSeq = ns.CurSeq
		nc.curVC = ns.CurVC
		nc.active = ns.Active
		nc.wakePending = ns.WakePending
	}

	for si, s := range n.shards {
		ss := &st.Shards[si]
		s.inj.ev = s.inj.ev[:0]
		for _, e := range ss.Inj {
			node := int(e.Node)
			if node < 0 || node >= len(n.nics) {
				return fmt.Errorf("network: shard %d snapshot injection for node %d out of range", si, node)
			}
			if n.shards[n.shardOfRouter(n.cfg.nodeRouter(node))] != s {
				return fmt.Errorf("network: shard %d snapshot injection for node %d owned by another shard", si, node)
			}
			s.inj.push(injEvent{at: e.At, node: e.Node, dst: e.Dst, size: e.Size})
		}
		s.injectedPkts = ss.InjectedPkts
		s.deliveredPkts = ss.DeliveredPkts
		s.deliveredFlits = ss.DeliveredFlits
		s.latCount = ss.LatCount
		s.latSum = ss.LatSum
		s.latMin = ss.LatMin
		s.latMax = ss.LatMax
		s.headLatCount = ss.HeadLatCount
		s.headLatSum = ss.HeadLatSum
		s.latHist.RestoreState(ss.LatHist)
		s.reroutes = ss.Reroutes
		s.misroutes = ss.Misroutes
		s.unreachableDrops = ss.UnreachableDrops

		s.activeOuts = s.activeOuts[:0]
		for _, ref := range ss.ActiveOuts {
			if ref.Router < 0 || ref.Router >= len(n.routers) {
				return fmt.Errorf("network: shard %d snapshot active output router %d out of range", si, ref.Router)
			}
			r := n.routers[ref.Router]
			if ref.Port < 0 || ref.Port >= r.Ports() {
				return fmt.Errorf("network: shard %d snapshot active output port %d out of range", si, ref.Port)
			}
			if n.shards[n.shardOfRouter(ref.Router)] != s {
				return fmt.Errorf("network: shard %d snapshot active output on router %d owned by another shard", si, ref.Router)
			}
			o := r.Output(ref.Port)
			if !o.Active() {
				return fmt.Errorf("network: shard %d work list references inactive output %d/%d", si, ref.Router, ref.Port)
			}
			s.activeOuts = append(s.activeOuts, o)
		}
		s.activeNICs = s.activeNICs[:0]
		for _, node := range ss.ActiveNICs {
			if node < 0 || node >= len(n.nics) {
				return fmt.Errorf("network: shard %d snapshot active NIC %d out of range", si, node)
			}
			nc := n.nics[node]
			if nc.sh != s {
				return fmt.Errorf("network: shard %d snapshot active NIC %d owned by another shard", si, node)
			}
			if !nc.active {
				return fmt.Errorf("network: shard %d work list references inactive NIC %d", si, node)
			}
			s.activeNICs = append(s.activeNICs, nc)
		}
		s.wantScan = false
	}

	for i, rs := range st.NodeRNGs {
		n.rngs[i].SetState(rs)
	}
	n.routeRNG.SetState(st.RouteRNG)

	if st.Fault != nil {
		if err := n.injector.RestoreState(*st.Fault); err != nil {
			return err
		}
	}
	if st.Recovery != nil {
		rec := n.rec
		if len(st.Recovery.Live) != len(rec.live) {
			return fmt.Errorf("network: snapshot liveness table has %d routers, network has %d", len(st.Recovery.Live), len(rec.live))
		}
		copy(rec.live, st.Recovery.Live)
		rec.recompute()
		rec.scanArmed = st.Recovery.ScanArmed
		rec.wdReroutes = st.Recovery.WdReroutes
		rec.wdDrops = st.Recovery.WdDrops
		rec.recomputes = st.Recovery.Recomputes
	}
	if st.Telemetry != nil {
		if err := n.telem.RestoreState(*st.Telemetry); err != nil {
			return err
		}
	}

	if err := n.wheel.RestoreState(st.Wheel, n.resolveHandler); err != nil {
		return err
	}
	if sim.Debug {
		n.debugCheckRestored(st)
	}

	n.now = st.Now
	n.nextPolicyTick = st.NextPolicyTick
	n.measureFrom = st.MeasureFrom
	n.wdDropped = st.WdDropped
	n.ffSkips = st.FFSkips
	n.ffCycles = st.FFCycles
	return nil
}

// debugCheckRestored runs the simdebug restore assertions: the wheel is
// monotonic past the restore point (enforced by Wheel.RestoreState) and the
// restored network conserves flits and credits.
func (n *Network) debugCheckRestored(st *State) {
	saved := n.now
	n.now = st.Now
	if err := n.audit(); err != nil {
		panic("simdebug: restored state fails conservation audit: " + err.Error())
	}
	n.now = saved
}
