package router

import (
	"testing"

	"repro/internal/linkmodel"
	"repro/internal/powerlink"
	"repro/internal/sim"
)

func mustLink() *powerlink.Link {
	return powerlink.MustNew(powerlink.Config{
		Scheme:     linkmodel.SchemeVCSEL,
		Params:     linkmodel.DefaultParams(),
		LevelRates: []float64{10},
	})
}

func BenchmarkBufferPushPop(b *testing.B) {
	buf := NewBuffer(16)
	p := &Packet{Len: 1 << 30}
	now := sim.Cycle(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Push(now, FlitRef{Pkt: p, Seq: int32(i)})
		buf.Pop(now)
		now++
	}
}

func BenchmarkChannelSend(b *testing.B) {
	w := sim.NewWheel(64)
	ch := NewChannel(mustLink(), w, func(sim.Cycle, FlitRef) {})
	p := &Packet{Len: 1 << 30}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := sim.Cycle(i)
		runCycle(w, now, ch.ResolveHandler)
		ch.Send(now, FlitRef{Pkt: p, Seq: int32(i)})
	}
}

// BenchmarkGrantPath measures the full grant pipeline: register, arbitrate,
// send, credit return, through a single router output under load.
func BenchmarkGrantPath(b *testing.B) {
	h := newHarness()
	r := h.newRouter(Config{ID: 0, Ports: 2, VCs: 2, BufDepth: 16, Route: func(int, *Packet, int) (int, uint32) { return 1, ^uint32(0) }})
	out := r.Output(1)
	ch := h.channel(mustLink(), func(now sim.Cycle, f FlitRef) {
		out.ReturnCredit(now, int(f.VC))
	})
	r.ConnectOutput(1, ch)
	r.ConnectOutput(0, h.channel(mustLink(), func(sim.Cycle, FlitRef) {}))
	accept := r.AcceptFlit(0)
	p := &Packet{Len: 1 << 30, Dst: 1}
	var seq int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := sim.Cycle(i)
		runCycle(h.wheel, now, h.resolve)
		if i%8 != 7 { // keep the buffer fed but bounded
			accept(now, FlitRef{Pkt: p, Seq: seq, VC: 0})
			seq++
		}
		outs := h.active
		h.active = h.active[:0]
		for _, o := range outs {
			if o.TryGrant(now) {
				h.active = append(h.active, o)
			}
		}
	}
}
