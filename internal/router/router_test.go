package router

import (
	"fmt"
	"testing"

	"repro/internal/linkmodel"
	"repro/internal/powerlink"
	"repro/internal/sim"
)

// harness is a minimal Scheduler: it runs one router in isolation with
// channels that deliver into capture buffers. Its resolve is the handler
// table the network would provide: router kinds go to the router, channel
// kinds to the channel with that link index, and hTest to closures the
// test scheduled itself.
type harness struct {
	wheel  *sim.Wheel
	active []*Output
	now    sim.Cycle

	router *Router
	chans  []*Channel
	evs    []sim.Event
}

// hTest is a handler kind outside sim's namespace for the harness's own
// events; obj indexes harness.evs.
const hTest uint8 = 0xff

func (h *harness) Schedule(at sim.Cycle, key, id uint64) { h.wheel.Schedule(at, key, id) }

func (h *harness) ActivateOutput(o *Output) {
	if !o.Active() {
		o.SetActive(true)
		h.active = append(h.active, o)
	}
}

// newRouter builds the harness's router.
func (h *harness) newRouter(cfg Config) *Router {
	h.router = New(cfg, h)
	return h.router
}

// channel builds a channel scheduling on h under the next link index.
func (h *harness) channel(pl *powerlink.Link, deliver DeliverFunc) *Channel {
	ch := NewChannel(pl, h, deliver)
	ch.SetLink(len(h.chans))
	h.chans = append(h.chans, ch)
	return ch
}

// at schedules ev at cycle at in the coordinator band.
func (h *harness) at(at sim.Cycle, ev sim.Event) {
	h.evs = append(h.evs, ev)
	h.wheel.Schedule(at, 0, sim.HandlerID(hTest, uint32(len(h.evs)-1), 0))
}

func (h *harness) resolve(id uint64) (sim.Event, bool) {
	obj := int(sim.HandlerObj(id))
	switch sim.HandlerKind(id) {
	case hTest:
		return h.evs[obj], true
	case sim.HRouterHOL, sim.HRouterCredit, sim.HRouterWake:
		return h.router.ResolveHandler(id)
	}
	return h.chans[obj].ResolveHandler(id)
}

// runCycle harvests cycle now from w and runs each entry's handler through
// resolve, as the network's Step does with its handler table.
func runCycle(w *sim.Wheel, now sim.Cycle, resolve func(uint64) (sim.Event, bool)) {
	for _, e := range w.BeginCycle(now) {
		ev, ok := resolve(e.ID)
		if !ok {
			panic(fmt.Sprintf("cycle %d: unresolvable handler %#x", now, e.ID))
		}
		ev(now)
	}
}

func (h *harness) step() {
	runCycle(h.wheel, h.now, h.resolve)
	outs := h.active
	h.active = nil
	for _, o := range outs {
		if o.TryGrant(h.now) {
			h.active = append(h.active, o)
		}
	}
	h.now++
}

func (h *harness) run(n int) {
	for i := 0; i < n; i++ {
		h.step()
	}
}

func newHarness() *harness {
	return &harness{wheel: sim.NewWheel(1024)}
}

// fixedRoute routes every packet to port p.Dst (tests encode the output
// port directly in the destination field).
func fixedRoute(routerID int, p *Packet, inVC int) (int, uint32) { return p.Dst, ^uint32(0) }

func fullRateLink(t *testing.T) *powerlink.Link {
	t.Helper()
	return powerlink.MustNew(powerlink.Config{
		Scheme:     linkmodel.SchemeVCSEL,
		Params:     linkmodel.DefaultParams(),
		LevelRates: []float64{10},
	})
}

type flitLog struct {
	flits []FlitRef
	times []sim.Cycle
}

func (l *flitLog) deliver(now sim.Cycle, f FlitRef) {
	l.flits = append(l.flits, f)
	l.times = append(l.times, now)
}

// buildRouter wires a Ports-port router whose outputs all feed capture
// logs that consume flits on arrival (returning credits, like the
// network's ejection sinks); returns the router and the logs.
func buildRouter(t *testing.T, h *harness, ports, vcs, depth int) (*Router, []*flitLog) {
	t.Helper()
	r := h.newRouter(Config{ID: 0, Ports: ports, VCs: vcs, BufDepth: depth, Route: fixedRoute})
	logs := make([]*flitLog, ports)
	for p := 0; p < ports; p++ {
		log := &flitLog{}
		logs[p] = log
		out := r.Output(p)
		ch := h.channel(fullRateLink(t), func(now sim.Cycle, f FlitRef) {
			log.deliver(now, f)
			out.ReturnCredit(now, int(f.VC))
		})
		r.ConnectOutput(p, ch)
	}
	return r, logs
}

func mkPacket(id int64, outPort, length int) *Packet {
	return &Packet{ID: id, Dst: outPort, DstRouter: 0, DstLocal: outPort, Len: length}
}

// injectSeq delivers pkt's flits into (p, v) one per cycle beginning at
// cycle start.
func injectSeq(h *harness, r *Router, p, v int, pkt *Packet, start sim.Cycle) {
	accept := r.AcceptFlit(p)
	for seq := 0; seq < pkt.Len; seq++ {
		s := int32(seq)
		h.at(start+sim.Cycle(seq), func(now sim.Cycle) {
			accept(now, FlitRef{Pkt: pkt, Seq: s, VC: int8(v)})
		})
	}
}

func TestRouterForwardsWholePacket(t *testing.T) {
	h := newHarness()
	r, logs := buildRouter(t, h, 4, 2, 8)
	pkt := mkPacket(1, 2, 5)
	injectSeq(h, r, 0, 0, pkt, 1)
	h.run(40)
	if got := len(logs[2].flits); got != 5 {
		t.Fatalf("output 2 delivered %d flits, want 5", got)
	}
	for i, f := range logs[2].flits {
		if f.Pkt != pkt || f.Seq != int32(i) {
			t.Errorf("flit %d out of order: %+v", i, f)
		}
	}
	for p, l := range logs {
		if p != 2 && len(l.flits) > 0 {
			t.Errorf("output %d received stray flits", p)
		}
	}
	if r.FlitsRouted() != 5 {
		t.Errorf("FlitsRouted = %d, want 5", r.FlitsRouted())
	}
}

func TestRouterPipelineLatency(t *testing.T) {
	h := newHarness()
	r, logs := buildRouter(t, h, 2, 1, 8)
	pkt := mkPacket(1, 1, 1)
	injectSeq(h, r, 0, 0, pkt, 1)
	h.run(20)
	if len(logs[1].times) != 1 {
		t.Fatal("packet not delivered")
	}
	// Arrival at cycle 1, head eligible at 1+HeadPipeDelay, granted that
	// cycle, serialises 1 cycle → delivery at 1+HeadPipeDelay+1.
	want := sim.Cycle(1 + HeadPipeDelay + 1)
	if got := logs[1].times[0]; got != want {
		t.Errorf("head delivered at %d, want %d", got, want)
	}
}

// TestRouterWormholeNoInterleave: two packets contending for one output
// must not interleave their flits (wormhole: the output VC is held until
// the tail passes). With 1 VC they serialise strictly.
func TestRouterWormholeNoInterleave(t *testing.T) {
	h := newHarness()
	r, logs := buildRouter(t, h, 3, 1, 8)
	a := mkPacket(1, 2, 4)
	b := mkPacket(2, 2, 4)
	injectSeq(h, r, 0, 0, a, 1)
	injectSeq(h, r, 1, 0, b, 1)
	h.run(60)
	if len(logs[2].flits) != 8 {
		t.Fatalf("delivered %d flits, want 8", len(logs[2].flits))
	}
	// Flits from each packet must appear as a contiguous block.
	firstID := logs[2].flits[0].Pkt.ID
	switched := false
	for _, f := range logs[2].flits {
		if f.Pkt.ID != firstID {
			switched = true
			firstID = f.Pkt.ID
		} else if switched && f.Pkt.ID == logs[2].flits[0].Pkt.ID {
			t.Fatal("packets interleaved on a single VC")
		}
	}
}

// TestRouterVCsInterleaveAcrossVCs: with 2 output VCs, two packets CAN be
// in flight and their flits may interleave on the channel, each tagged
// with its own VC.
func TestRouterTwoVCsBothClaimed(t *testing.T) {
	h := newHarness()
	r, logs := buildRouter(t, h, 3, 2, 8)
	a := mkPacket(1, 2, 6)
	b := mkPacket(2, 2, 6)
	injectSeq(h, r, 0, 0, a, 1)
	injectSeq(h, r, 1, 1, b, 1)
	h.run(60)
	if len(logs[2].flits) != 12 {
		t.Fatalf("delivered %d flits, want 12", len(logs[2].flits))
	}
	seenVC := map[int8]int64{}
	for _, f := range logs[2].flits {
		seenVC[f.VC] = f.Pkt.ID
	}
	if len(seenVC) != 2 {
		t.Errorf("expected both output VCs used, got %v", seenVC)
	}
}

// TestRouterCreditStall: with a tiny downstream buffer and no credit
// returns, the output must stop after BufDepth flits and resume when
// credits come back.
func TestRouterCreditStall(t *testing.T) {
	h := newHarness()
	r := h.newRouter(Config{ID: 0, Ports: 2, VCs: 1, BufDepth: 8, Route: fixedRoute})
	log := &flitLog{}
	ch := h.channel(fullRateLink(t), log.deliver)
	r.ConnectOutput(1, ch)
	r.ConnectOutput(0, h.channel(fullRateLink(t), func(sim.Cycle, FlitRef) {}))

	// 12-flit packet, downstream never returns credits: exactly BufDepth
	// flits may be granted; the rest wait in the 8-deep input buffer.
	pkt := mkPacket(1, 1, 12)
	injectSeq(h, r, 0, 0, pkt, 1)
	h.run(60)
	if len(log.flits) != 8 {
		t.Fatalf("delivered %d flits with no credit returns, want 8 (BufDepth)", len(log.flits))
	}
	// Return credits: the remaining flits flow.
	out := r.Output(1)
	for i := 0; i < 4; i++ {
		out.ReturnCredit(h.now, 0)
	}
	h.run(60)
	if len(log.flits) != 12 {
		t.Errorf("delivered %d flits after credit return, want 12", len(log.flits))
	}
}

// TestRouterRoundRobinFairness: three inputs streaming to one output must
// each get roughly a third of the grants.
func TestRouterRoundRobinFairness(t *testing.T) {
	h := newHarness()
	r, logs := buildRouter(t, h, 4, 3, 24)
	// Three long packets from three inputs on three different VCs (so all
	// can hold an output VC simultaneously).
	for in := 0; in < 3; in++ {
		pkt := mkPacket(int64(in+1), 3, 30)
		injectSeq(h, r, in, in%3, pkt, 1)
	}
	h.run(300)
	if len(logs[3].flits) != 90 {
		t.Fatalf("delivered %d flits, want 90", len(logs[3].flits))
	}
	// Count positions of each packet's tail: all three should finish
	// within ~40 cycles of each other if service was fair.
	tails := map[int64]int{}
	for i, f := range logs[3].flits {
		if f.IsTail() {
			tails[f.Pkt.ID] = i
		}
	}
	min, max := 1<<30, 0
	for _, pos := range tails {
		if pos < min {
			min = pos
		}
		if pos > max {
			max = pos
		}
	}
	if max-min > 45 {
		t.Errorf("unfair service: tail positions span %d (min %d, max %d)", max-min, min, max)
	}
}

// TestRouterInputConflict: one input port cannot feed two outputs in the
// same cycle (crossbar constraint); total throughput from one input is
// 1 flit/cycle even when两 outputs are free. (Two packets on different
// VCs of the SAME input port.)
func TestRouterInputPortConflict(t *testing.T) {
	h := newHarness()
	r, logs := buildRouter(t, h, 3, 2, 16)
	a := mkPacket(1, 1, 10)
	b := mkPacket(2, 2, 10)
	injectSeq(h, r, 0, 0, a, 1)
	injectSeq(h, r, 0, 1, b, 1)
	// Flits arrive 1/cycle into the same input port (alternating VCs in
	// real life; here they pile in-order per VC).
	h.run(100)
	if len(logs[1].flits) != 10 || len(logs[2].flits) != 10 {
		t.Fatalf("delivered %d/%d flits", len(logs[1].flits), len(logs[2].flits))
	}
	// With a single input port feeding both outputs, 20 flits need ≥ 20
	// grant cycles; the last delivery must be ≥ cycle 21.
	last := logs[1].times[len(logs[1].times)-1]
	if l2 := logs[2].times[len(logs[2].times)-1]; l2 > last {
		last = l2
	}
	if last < 21 {
		t.Errorf("last delivery at %d — input port served 2 flits in one cycle", last)
	}
}

func TestRouterBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad config did not panic")
		}
	}()
	New(Config{Ports: 0, VCs: 1, BufDepth: 1}, newHarness())
}

func TestRouterInvalidRoutePanics(t *testing.T) {
	h := newHarness()
	r := h.newRouter(Config{ID: 0, Ports: 2, VCs: 1, BufDepth: 4,
		Route: func(int, *Packet, int) (int, uint32) { return 99, ^uint32(0) }})
	r.ConnectOutput(0, h.channel(fullRateLink(t), func(sim.Cycle, FlitRef) {}))
	r.ConnectOutput(1, h.channel(fullRateLink(t), func(sim.Cycle, FlitRef) {}))
	pkt := mkPacket(1, 0, 1)
	defer func() {
		if recover() == nil {
			t.Error("invalid route did not panic")
		}
	}()
	injectSeq(h, r, 0, 0, pkt, 1)
	h.run(20)
}

// TestRouterUpstreamCredits: every flit leaving an input buffer returns
// one credit to the upstream sink after CreditDelay.
func TestRouterUpstreamCredits(t *testing.T) {
	h := newHarness()
	r, _ := buildRouter(t, h, 2, 1, 8)
	credits := []sim.Cycle{}
	sink := creditRecorder{&credits, h}
	r.SetUpstream(0, 0, sink, 0, 0)
	pkt := mkPacket(1, 1, 3)
	injectSeq(h, r, 0, 0, pkt, 1)
	h.run(40)
	if len(credits) != 3 {
		t.Fatalf("got %d credit returns, want 3", len(credits))
	}
}

type creditRecorder struct {
	times *[]sim.Cycle
	h     *harness
}

func (c creditRecorder) ReturnCredit(now sim.Cycle, vc int) {
	*c.times = append(*c.times, now)
}

// TestRouterSlowLinkBackToBack: an output on a 5 Gb/s link grants at most
// one flit every 2 cycles.
func TestRouterSlowLink(t *testing.T) {
	h := newHarness()
	r := h.newRouter(Config{ID: 0, Ports: 2, VCs: 1, BufDepth: 16, Route: fixedRoute})
	slow := powerlink.MustNew(powerlink.Config{
		Scheme:     linkmodel.SchemeVCSEL,
		Params:     linkmodel.DefaultParams(),
		LevelRates: []float64{5},
	})
	log := &flitLog{}
	r.ConnectOutput(1, h.channel(slow, log.deliver))
	r.ConnectOutput(0, h.channel(fullRateLink(t), func(sim.Cycle, FlitRef) {}))
	pkt := mkPacket(1, 1, 6)
	injectSeq(h, r, 0, 0, pkt, 1)
	h.run(60)
	if len(log.times) != 6 {
		t.Fatalf("delivered %d flits", len(log.times))
	}
	for i := 1; i < len(log.times); i++ {
		if log.times[i]-log.times[i-1] < 2 {
			t.Errorf("flits %d,%d only %d cycles apart on a 5 Gb/s link",
				i-1, i, log.times[i]-log.times[i-1])
		}
	}
}
