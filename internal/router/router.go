package router

import (
	"fmt"

	"repro/internal/sim"
)

// RouteFunc computes, at router routerID, the output port for packet p and
// the set of downstream virtual channels the packet may claim there (bit v
// set = VC v allowed). inVC is the input VC the packet arrived on — escape
// VC disciplines route restrictively once a packet is on the escape layer.
// The mask must be non-zero; a routing function with no VC policy returns
// all ones.
type RouteFunc func(routerID int, p *Packet, inVC int) (port int, vcMask uint32)

// AllVCs builds the unrestricted VC mask for n virtual channels.
func AllVCs(n int) uint32 { return uint32(1)<<uint(n) - 1 }

// Sched is the event-scheduling half of the surrounding simulation. Under
// sharding this is the router's owning shard, which stages the request and
// forwards it to the global wheel at the cycle barrier; a bare *sim.Wheel
// satisfies it for standalone routers and channels. The key orders
// same-cycle events canonically (see sim.ActorKey); key 0 is the sequential
// coordinator band.
type Sched interface {
	// Schedule registers the handler named by descriptor id (sim.HandlerID)
	// to fire at cycle at. Whoever drains the wheel resolves id back to the
	// handler — through ResolveHandler for this package's handlers.
	Schedule(at sim.Cycle, key, id uint64)
}

// Scheduler is the part of the surrounding network the router talks to:
// event scheduling plus the active-output work list.
type Scheduler interface {
	Sched
	// ActivateOutput queues o for grant processing; idempotent while the
	// output is already active.
	ActivateOutput(o *Output)
}

// CreditSink receives returned credits for a virtual channel: the upstream
// output port of a router-to-router link, or a NIC for an injection link.
type CreditSink interface {
	ReturnCredit(now sim.Cycle, vc int)
}

// Config parameterises one router.
type Config struct {
	ID       int
	Ports    int
	VCs      int
	BufDepth int // flits per input VC
	Route    RouteFunc
	// Actor is the router's ordering-key identity (sim.ActorKey owner). 0 is
	// fine for a standalone router on its own wheel; a sharded network
	// assigns every router a unique actor id.
	Actor uint32
	// EscapeVCs reserves the first EscapeVCs virtual channels of every
	// port as the escape layer of fault-aware routing (Duato-style): VC
	// allocation prefers the remaining adaptive VCs and only claims an
	// escape VC when the routing function's mask offers it. 0 disables —
	// allocation order and behaviour are then exactly the historical ones.
	EscapeVCs int
}

// Router is one 5-stage pipelined virtual-channel wormhole router.
type Router struct {
	id        int
	ports     int
	vcs       int
	depth     int
	escapeVCs int
	route     RouteFunc
	sched     Scheduler
	selfKey   uint64 // ordering key for self-scheduled events (HOL, wake)

	ins       []inputVC
	outs      []Output
	inputBusy []sim.Cycle // per input port: cycle of the last crossbar grant

	flitsRouted    int64
	flitsDiscarded int64 // killed-packet flits dropped at this router
	escGrants      int64 // flits granted onto an escape VC
}

type inputVC struct {
	buf    *Buffer
	route  int     // output port for the current packet, -1 when unset
	outVC  int     // allocated output VC at that port, -1 when unset
	vcMask uint32  // downstream VCs the current packet may claim
	curPkt *Packet // packet whose wormhole currently owns this input VC
	inReq  bool    // currently queued in an output's request list
	//optolint:derived credit-return wiring re-installed by SetUpstream during construction
	upstream CreditSink
	//optolint:derived credit-return wiring re-installed by SetUpstream during construction
	upVC int
	//optolint:derived credit-return wiring re-installed by SetUpstream during construction
	creditKey uint64 // ordering key for credit returns: (upstream actor, us)

	// progressAt is the cycle of the last forward progress on this VC —
	// a pop, or an arrival into an empty buffer. The stall watchdog
	// measures head-of-line blockage against it.
	progressAt sim.Cycle

	holEvt    sim.Event // fires register() when the HOL flit becomes ready
	creditEvt sim.Event // returns one credit upstream
}

// Output is one router output port: the request list competing for it, its
// output virtual channels (tracking downstream buffer credits and wormhole
// ownership), and the physical channel.
type Output struct {
	router *Router
	port   int
	//optolint:derived physical-channel wiring re-installed by ConnectOutput during construction
	ch     *Channel
	ovc    []outVC
	req    []int // input-VC indices with a ready HOL flit routed here
	rr     int   // round-robin scan start
	active bool

	wakePending bool
	wakeEvt     sim.Event

	grants       int64
	creditStalls int64
}

// CreditStalls returns how many grant attempts this output port rejected
// because the chosen output VC had no downstream credits — a direct measure
// of backpressure on the port.
func (o *Output) CreditStalls() int64 { return o.creditStalls }

type outVC struct {
	credits int
	owner   int // input-VC index holding this output VC, -1 when free
}

// New builds a router with all ports and VCs initialised. Channels are
// attached afterwards via ConnectOutput; input-port upstreams via
// SetUpstream.
func New(cfg Config, sched Scheduler) *Router {
	if cfg.Ports <= 0 || cfg.VCs <= 0 || cfg.BufDepth <= 0 {
		panic(fmt.Sprintf("router: bad config %+v", cfg))
	}
	if cfg.EscapeVCs < 0 || cfg.EscapeVCs >= cfg.VCs {
		panic(fmt.Sprintf("router: EscapeVCs %d must be in [0, VCs=%d)", cfg.EscapeVCs, cfg.VCs))
	}
	r := &Router{
		id:        cfg.ID,
		ports:     cfg.Ports,
		vcs:       cfg.VCs,
		depth:     cfg.BufDepth,
		escapeVCs: cfg.EscapeVCs,
		route:     cfg.Route,
		sched:     sched,
		selfKey:   sim.ActorKey(cfg.Actor, cfg.Actor),
		ins:       make([]inputVC, cfg.Ports*cfg.VCs),
		outs:      make([]Output, cfg.Ports),
		inputBusy: make([]sim.Cycle, cfg.Ports),
	}
	for i := range r.inputBusy {
		r.inputBusy[i] = -1
	}
	for i := range r.ins {
		in := &r.ins[i]
		in.buf = NewBuffer(cfg.BufDepth)
		in.route = -1
		in.outVC = -1
		idx := i
		in.holEvt = func(now sim.Cycle) { r.register(now, idx) }
		in.creditEvt = func(now sim.Cycle) {
			in := &r.ins[idx]
			if up := in.upstream; up != nil {
				up.ReturnCredit(now, in.upVC)
			}
		}
	}
	for p := range r.outs {
		o := &r.outs[p]
		o.router = r
		o.port = p
		o.ovc = make([]outVC, cfg.VCs)
		for v := range o.ovc {
			o.ovc[v] = outVC{credits: cfg.BufDepth, owner: -1}
		}
		o.wakeEvt = func(now sim.Cycle) {
			o.wakePending = false
			if len(o.req) > 0 {
				r.sched.ActivateOutput(o)
			}
		}
	}
	return r
}

// ID returns the router's identifier.
func (r *Router) ID() int { return r.id }

// holID and creditID build the checkpoint descriptors for this router's
// per-input-VC events.
func (r *Router) holID(ivc int) uint64 {
	return sim.HandlerID(sim.HRouterHOL, uint32(r.id), uint16(ivc))
}

func (r *Router) creditID(ivc int) uint64 {
	return sim.HandlerID(sim.HRouterCredit, uint32(r.id), uint16(ivc))
}

// ResolveHandler maps a handler descriptor owned by this router back to its
// event closure (see sim.HandlerID), for both dispatch and restore.
func (r *Router) ResolveHandler(id uint64) (sim.Event, bool) {
	param := int(sim.HandlerParam(id))
	switch sim.HandlerKind(id) {
	case sim.HRouterHOL:
		if param < len(r.ins) {
			return r.ins[param].holEvt, true
		}
	case sim.HRouterCredit:
		if param < len(r.ins) {
			return r.ins[param].creditEvt, true
		}
	case sim.HRouterWake:
		if param < len(r.outs) {
			return r.outs[param].wakeEvt, true
		}
	}
	return nil, false
}

// Ports returns the number of ports.
func (r *Router) Ports() int { return r.ports }

// VCs returns the number of virtual channels per port.
func (r *Router) VCs() int { return r.vcs }

// FlitsRouted returns the number of flits this router has switched.
func (r *Router) FlitsRouted() int64 { return r.flitsRouted }

// Output returns output port p.
func (r *Router) Output(p int) *Output { return &r.outs[p] }

// InputBuffer returns the buffer of input port p, virtual channel v —
// what the upstream link's policy controller samples for Bu.
func (r *Router) InputBuffer(p, v int) *Buffer { return r.ins[p*r.vcs+v].buf }

// CreditID returns the handler descriptor of input port p, VC v's credit
// returns. The credit events pending on the wheel under this id are the
// credits in flight back upstream.
func (r *Router) CreditID(p, v int) uint64 { return r.creditID(p*r.vcs + v) }

// SetUpstream wires the credit-return path for input port p, VC v: when a
// flit leaves that buffer, sink.ReturnCredit(·, upVC) is invoked after
// CreditDelay cycles. upActor is the actor id of the sink's owner — the
// credit event mutates upstream state, so it executes on the upstream
// owner's shard, ordered under key (upActor, our actor).
func (r *Router) SetUpstream(p, v int, sink CreditSink, upVC int, upActor uint32) {
	in := &r.ins[p*r.vcs+v]
	in.upstream = sink
	in.upVC = upVC
	in.creditKey = sim.ActorKey(upActor, sim.KeyOwner(r.selfKey))
}

// ConnectOutput attaches the physical channel for output port p.
func (r *Router) ConnectOutput(p int, ch *Channel) { r.outs[p].ch = ch }

// AcceptFlit is the delivery function for channels terminating at input
// port p of this router: the flit is written into the VC buffer it was
// sent on and pipeline eligibility is stamped.
func (r *Router) AcceptFlit(p int) DeliverFunc {
	return func(now sim.Cycle, f FlitRef) {
		ivc := p*r.vcs + int(f.VC)
		in := &r.ins[ivc]
		if f.IsHead() {
			f.ReadyAt = now + HeadPipeDelay
		} else {
			f.ReadyAt = now + BodyPipeDelay
		}
		wasEmpty := in.buf.Len() == 0
		in.buf.Push(now, f)
		if wasEmpty {
			in.progressAt = now
			r.register(now, ivc)
		}
	}
}

// register makes input VC ivc's head-of-line flit compete for its output
// port, scheduling itself for later if the flit is not yet pipeline-ready.
// Flits of packets killed at this router are discarded here instead.
func (r *Router) register(now sim.Cycle, ivc int) {
	in := &r.ins[ivc]
	if in.inReq || in.buf.Len() == 0 {
		return
	}
	f := in.buf.Front()
	if f.Pkt.Killed && f.Pkt.KillRouter == r.id {
		r.discardKilled(now, ivc)
		if in.buf.Len() == 0 {
			return
		}
		f = in.buf.Front()
	}
	if f.ReadyAt > now {
		r.sched.Schedule(f.ReadyAt, r.selfKey, r.holID(ivc))
		return
	}
	if f.IsHead() && in.route < 0 {
		port, mask := r.route(r.id, f.Pkt, ivc%r.vcs) // route computation stage
		if port < 0 || port >= r.ports {
			panic(fmt.Sprintf("router %d: route for packet %d -> invalid port %d", r.id, f.Pkt.ID, port))
		}
		if mask == 0 {
			panic(fmt.Sprintf("router %d: empty VC mask for packet %d", r.id, f.Pkt.ID))
		}
		in.route = port
		in.vcMask = mask
		in.curPkt = f.Pkt
	}
	o := &r.outs[in.route]
	in.inReq = true
	o.req = append(o.req, ivc)
	r.sched.ActivateOutput(o)
}

// discardKilled drops the flits of the killed packet at the head of input
// VC ivc, returning one upstream credit per flit. When the packet's tail
// passes, the wormhole state it held through this router is released. The
// caller must have detached ivc from any request list first.
func (r *Router) discardKilled(now sim.Cycle, ivc int) {
	in := &r.ins[ivc]
	for in.buf.Len() > 0 {
		f := in.buf.Front()
		p := f.Pkt
		if !p.Killed || p.KillRouter != r.id {
			return
		}
		in.buf.Pop(now)
		in.progressAt = now
		r.flitsDiscarded++
		if in.upstream != nil {
			r.sched.Schedule(now+CreditDelay, in.creditKey, r.creditID(ivc))
		}
		if f.IsTail() && in.curPkt == p {
			if in.outVC >= 0 {
				r.outs[in.route].ovc[in.outVC].owner = -1
				in.outVC = -1
			}
			in.route = -1
			in.curPkt = nil
		}
	}
}

// detach removes input VC ivc from its output's request list, if queued.
func (r *Router) detach(ivc int) {
	in := &r.ins[ivc]
	if !in.inReq {
		return
	}
	o := &r.outs[in.route]
	for i, q := range o.req {
		if q == ivc {
			o.req = append(o.req[:i], o.req[i+1:]...)
			break
		}
	}
	if len(o.req) == 0 {
		o.rr = 0
	} else {
		o.rr %= len(o.req)
	}
	in.inReq = false
}

// InputVCs returns the number of input virtual channels (ports × VCs);
// input VC indices run [0, InputVCs()).
func (r *Router) InputVCs() int { return len(r.ins) }

// HOL returns input VC ivc's head-of-line flit (ok=false when empty).
func (r *Router) HOL(ivc int) (FlitRef, bool) {
	in := &r.ins[ivc]
	if in.buf.Len() == 0 {
		return FlitRef{}, false
	}
	return in.buf.Front(), true
}

// ProgressAt returns the cycle of input VC ivc's last forward progress.
func (r *Router) ProgressAt(ivc int) sim.Cycle { return r.ins[ivc].progressAt }

// RouteOf returns the output port the current packet on input VC ivc is
// routed to (-1 when no wormhole is in progress).
func (r *Router) RouteOf(ivc int) int { return r.ins[ivc].route }

// RerouteHOL redirects the head-of-line packet of input VC ivc to (port,
// vcMask), releasing any request-list slot and output VC it held. Only a
// packet whose head flit is still waiting here can change course — once
// body flits follow, the wormhole is committed. Reports whether the
// reroute was applied.
func (r *Router) RerouteHOL(now sim.Cycle, ivc, port int, vcMask uint32) bool {
	in := &r.ins[ivc]
	if in.buf.Len() == 0 || vcMask == 0 || port < 0 || port >= r.ports {
		return false
	}
	f := in.buf.Front()
	if !f.IsHead() {
		return false
	}
	if in.route == port && in.vcMask == vcMask {
		// Already restricted to exactly this route: re-registering would be
		// a no-op, and reporting success would let a caller's escalation
		// counter tick on every scan for one stuck packet.
		return false
	}
	r.detach(ivc)
	if in.outVC >= 0 {
		r.outs[in.route].ovc[in.outVC].owner = -1
		in.outVC = -1
	}
	in.route = port
	in.vcMask = vcMask
	in.curPkt = f.Pkt
	r.register(now, ivc)
	return true
}

// KillHOL drops the packet whose head flit is blocked at input VC ivc: the
// packet is marked killed with this router as its discard point, its
// buffered flits are dropped with credits returned, and any flits still
// arriving from upstream are discarded on arrival. Returns the killed
// packet, or nil when the head-of-line flit is not a head (a committed
// wormhole cannot be killed here — its head router must do it).
func (r *Router) KillHOL(now sim.Cycle, ivc int) *Packet {
	in := &r.ins[ivc]
	if in.buf.Len() == 0 {
		return nil
	}
	f := in.buf.Front()
	if !f.IsHead() {
		return nil
	}
	p := f.Pkt
	r.detach(ivc)
	if in.outVC >= 0 {
		r.outs[in.route].ovc[in.outVC].owner = -1
		in.outVC = -1
	}
	in.route = -1
	in.curPkt = nil
	p.Killed = true
	p.KillRouter = r.id
	r.discardKilled(now, ivc)
	if in.buf.Len() > 0 {
		r.register(now, ivc)
	}
	return p
}

// SweepKilled discards, across all input VCs, head-of-line flits of
// packets killed at this router — called after a channel abort marks
// packets killed while their body flits sit in our buffers.
func (r *Router) SweepKilled(now sim.Cycle) {
	for ivc := range r.ins {
		in := &r.ins[ivc]
		if in.buf.Len() == 0 {
			continue
		}
		f := in.buf.Front()
		if !f.Pkt.Killed || f.Pkt.KillRouter != r.id {
			continue
		}
		r.detach(ivc)
		r.discardKilled(now, ivc)
		if in.buf.Len() > 0 {
			r.register(now, ivc)
		}
	}
}

// DiscardedFlits returns how many killed-packet flits this router dropped.
func (r *Router) DiscardedFlits() int64 { return r.flitsDiscarded }

// EscapeGrants returns how many flits this router granted onto escape VCs.
func (r *Router) EscapeGrants() int64 { return r.escGrants }

// BufferedFlits returns the number of flits currently occupying this
// router's input buffers across all ports and VCs — the telemetry probe for
// instantaneous VC occupancy.
func (r *Router) BufferedFlits() int {
	n := 0
	for i := range r.ins {
		n += r.ins[i].buf.Len()
	}
	return n
}

// pickVC selects a free output VC permitted by mask, preferring adaptive
// VCs over escape VCs; with no escape VCs configured the scan is the
// historical ascending order.
func (o *Output) pickVC(mask uint32) int {
	esc := o.router.escapeVCs
	for v := esc; v < len(o.ovc); v++ {
		if mask&(1<<uint(v)) != 0 && o.ovc[v].owner < 0 {
			return v
		}
	}
	for v := 0; v < esc; v++ {
		if mask&(1<<uint(v)) != 0 && o.ovc[v].owner < 0 {
			return v
		}
	}
	return -1
}

// TryGrant runs one switch-allocation round for this output port at cycle
// now: at most one flit is granted. It returns whether the output should
// remain on the active list for the next cycle.
func (o *Output) TryGrant(now sim.Cycle) bool {
	r := o.router
	if len(o.req) == 0 {
		o.active = false
		return false
	}
	// Link/channel availability gates everything: when the channel is
	// serialising or the link is mid-frequency-switch, sleep until it is
	// expected back.
	if !o.ch.Usable(now) {
		o.active = false
		if !o.wakePending {
			o.wakePending = true
			at := o.ch.NextUsableAt(now)
			if at <= now {
				at = now + 1
			}
			r.sched.Schedule(at, r.selfKey, sim.HandlerID(sim.HRouterWake, uint32(r.id), uint16(o.port)))
		}
		return false
	}

	n := len(o.req)
	for k := 0; k < n; k++ {
		i := (o.rr + k) % n
		ivc := o.req[i]
		in := &r.ins[ivc]
		inPort := ivc / r.vcs
		if r.inputBusy[inPort] == now {
			continue // crossbar input already used this cycle
		}
		if hol := in.buf.Front(); hol.Pkt.Killed && hol.Pkt.KillRouter == r.id {
			// Killed between registration and grant: discard instead of
			// forwarding (the watchdog normally sweeps these out first).
			o.req = append(o.req[:i], o.req[i+1:]...)
			in.inReq = false
			if len(o.req) > 0 {
				o.rr = i % len(o.req)
			} else {
				o.rr = 0
			}
			r.discardKilled(now, ivc)
			if in.buf.Len() > 0 {
				r.register(now, ivc)
			}
			o.active = len(o.req) > 0
			return o.active
		}
		// VC allocation for head flits that have not yet acquired an
		// output VC.
		if in.outVC < 0 {
			free := o.pickVC(in.vcMask)
			if free < 0 {
				continue // all permitted output VCs owned; wait for a tail
			}
			o.ovc[free].owner = ivc
			in.outVC = free
		}
		v := in.outVC
		if o.ovc[v].credits == 0 {
			o.creditStalls++
			continue // downstream buffer full; credit return reactivates us
		}

		// Grant: switch traversal and link transmission.
		o.ovc[v].credits--
		f := in.buf.Pop(now)
		in.progressAt = now
		r.inputBusy[inPort] = now
		r.flitsRouted++
		o.grants++
		if v < r.escapeVCs {
			r.escGrants++
		}
		if in.upstream != nil {
			r.sched.Schedule(now+CreditDelay, in.creditKey, r.creditID(ivc))
		}
		f.VC = int8(v)
		o.ch.Send(now, f)

		if f.IsTail() {
			o.ovc[v].owner = -1
			in.outVC = -1
			in.route = -1
			in.curPkt = nil
		}

		// Remove ivc from the request list (ordered, for stable fairness)
		// and advance the round-robin pointer past the granted slot.
		o.req = append(o.req[:i], o.req[i+1:]...)
		in.inReq = false
		if len(o.req) > 0 {
			o.rr = i % len(o.req)
		} else {
			o.rr = 0
		}
		// Re-register the next flit in this VC (it may target the same or,
		// after a tail, a different output).
		if in.buf.Len() > 0 {
			r.register(now, ivc)
		}
		o.active = len(o.req) > 0
		return o.active
	}
	// Requests exist but none could be granted this cycle (input-port
	// conflicts, VC exhaustion, or zero credits). Stay active: conflicts
	// clear next cycle, and credit returns also re-activate us.
	return true
}

// ReturnCredit implements CreditSink for the downstream side of this
// output's link: a flit left the downstream input buffer, freeing a slot.
func (o *Output) ReturnCredit(now sim.Cycle, vc int) {
	o.ovc[vc].credits++
	if sim.Debug {
		sim.Assertf(o.ovc[vc].credits <= o.router.depth,
			"router %d output %d vc %d: %d credits exceed buffer depth %d (credit conservation broken)",
			o.router.id, o.port, vc, o.ovc[vc].credits, o.router.depth)
	}
	if len(o.req) > 0 {
		o.router.sched.ActivateOutput(o)
	}
}

// Credits returns the available credits on output VC v (tests/diagnostics).
func (o *Output) Credits(v int) int { return o.ovc[v].credits }

// TotalCredits returns the credits summed over the output's VCs — the
// congestion signal adaptive routing selects by.
func (o *Output) TotalCredits() int {
	var sum int
	for v := range o.ovc {
		sum += o.ovc[v].credits
	}
	return sum
}

// Grants returns the number of flits this output has switched.
func (o *Output) Grants() int64 { return o.grants }

// Channel returns the attached physical channel.
func (o *Output) Channel() *Channel { return o.ch }

// Port returns the output's port index.
func (o *Output) Port() int { return o.port }

// Active reports whether the output is on the scheduler's work list.
func (o *Output) Active() bool { return o.active }

// SetActive marks the output as queued; used by the Scheduler only.
func (o *Output) SetActive(v bool) { o.active = v }

// QueuedRequests returns the number of input VCs competing for this output.
func (o *Output) QueuedRequests() int { return len(o.req) }
