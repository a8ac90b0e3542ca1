package router

import (
	"math"
	"testing"

	"repro/internal/linkmodel"
	"repro/internal/powerlink"
	"repro/internal/sim"
)

func testLink(t *testing.T, rates []float64) *powerlink.Link {
	t.Helper()
	return powerlink.MustNew(powerlink.Config{
		Scheme:     linkmodel.SchemeVCSEL,
		Params:     linkmodel.DefaultParams(),
		LevelRates: rates,
		Tbr:        20,
		Tv:         100,
	})
}

type capture struct {
	times []sim.Cycle
	flits []FlitRef
}

func (c *capture) deliver(now sim.Cycle, f FlitRef) {
	c.times = append(c.times, now)
	c.flits = append(c.flits, f)
}

func TestChannelFullRateBackToBack(t *testing.T) {
	w := sim.NewWheel(64)
	cap := &capture{}
	ch := NewChannel(testLink(t, []float64{10}), w, cap.deliver)
	p := &Packet{Len: 4}
	now := sim.Cycle(0)
	sent := 0
	for cycle := sim.Cycle(0); cycle < 10; cycle++ {
		runCycle(w, cycle, ch.ResolveHandler)
		if sent < 4 && ch.Usable(cycle) {
			ch.Send(cycle, FlitRef{Pkt: p, Seq: int32(sent)})
			sent++
		}
		now = cycle
	}
	_ = now
	if sent != 4 {
		t.Fatalf("sent %d flits in 10 cycles at 10 Gb/s, want 4 back-to-back", sent)
	}
	// At 10 Gb/s each flit arrives exactly 1 cycle after it is sent.
	want := []sim.Cycle{1, 2, 3, 4}
	for i, at := range cap.times {
		if at != want[i] {
			t.Errorf("flit %d arrived at %d, want %d", i, at, want[i])
		}
	}
}

func TestChannelHalfRateTakesTwoCycles(t *testing.T) {
	w := sim.NewWheel(64)
	cap := &capture{}
	ch := NewChannel(testLink(t, []float64{5}), w, cap.deliver)
	p := &Packet{Len: 3}
	sent := 0
	for cycle := sim.Cycle(0); cycle < 10; cycle++ {
		runCycle(w, cycle, ch.ResolveHandler)
		if sent < 3 && ch.Usable(cycle) {
			ch.Send(cycle, FlitRef{Pkt: p, Seq: int32(sent)})
			sent++
		}
	}
	if sent != 3 {
		t.Fatalf("sent %d flits, want 3", sent)
	}
	want := []sim.Cycle{2, 4, 6}
	for i, at := range cap.times {
		if at != want[i] {
			t.Errorf("flit %d arrived at %d, want %d (5 Gb/s = 2 cycles/flit)", i, at, want[i])
		}
	}
}

// TestChannelFractionalRateAverages: at 6 Gb/s a flit takes 5/3 cycles; over
// 30 cycles the channel must fit 18 flits, not the 15 a ceil-per-flit model
// would allow.
func TestChannelFractionalRateAverages(t *testing.T) {
	w := sim.NewWheel(64)
	cap := &capture{}
	ch := NewChannel(testLink(t, []float64{6}), w, cap.deliver)
	p := &Packet{Len: 1000}
	sent := 0
	for cycle := sim.Cycle(0); cycle < 30; cycle++ {
		runCycle(w, cycle, ch.ResolveHandler)
		if ch.Usable(cycle) {
			ch.Send(cycle, FlitRef{Pkt: p, Seq: int32(sent)})
			sent++
		}
	}
	if sent != 18 {
		t.Errorf("sent %d flits in 30 cycles at 6 Gb/s, want 18 (0.6 flits/cycle)", sent)
	}
}

func TestChannelBusyCycles(t *testing.T) {
	w := sim.NewWheel(64)
	ch := NewChannel(testLink(t, []float64{5}), w, func(sim.Cycle, FlitRef) {})
	p := &Packet{Len: 10}
	runCycle(w, 0, ch.ResolveHandler)
	ch.Send(0, FlitRef{Pkt: p, Seq: 0})
	if got := ch.BusyCycles(); math.Abs(got-2.0) > 1e-9 {
		t.Errorf("busy cycles after one 5 Gb/s flit = %g, want 2", got)
	}
	if ch.Flits() != 1 {
		t.Errorf("flits = %d, want 1", ch.Flits())
	}
}

func TestChannelSendWhileBusyPanics(t *testing.T) {
	w := sim.NewWheel(64)
	ch := NewChannel(testLink(t, []float64{5}), w, func(sim.Cycle, FlitRef) {})
	p := &Packet{Len: 2}
	runCycle(w, 0, ch.ResolveHandler)
	ch.Send(0, FlitRef{Pkt: p, Seq: 0})
	defer func() {
		if recover() == nil {
			t.Error("send on busy channel did not panic")
		}
	}()
	ch.Send(0, FlitRef{Pkt: p, Seq: 1})
}

func TestChannelDisabledDuringTransition(t *testing.T) {
	w := sim.NewWheel(64)
	link := testLink(t, []float64{5, 10})
	ch := NewChannel(link, w, func(sim.Cycle, FlitRef) {})
	link.RequestStep(0, -1) // frequency switch: disabled for Tbr=20
	if ch.Usable(5) {
		t.Error("channel usable during frequency switch")
	}
	if at := ch.NextUsableAt(5); at != 20 {
		t.Errorf("NextUsableAt during switch = %d, want 20", at)
	}
	if !ch.Usable(20) {
		t.Error("channel not usable after Tbr")
	}
}

func TestChannelNextUsableAfterSerialisation(t *testing.T) {
	w := sim.NewWheel(64)
	ch := NewChannel(testLink(t, []float64{5}), w, func(sim.Cycle, FlitRef) {})
	p := &Packet{Len: 2}
	runCycle(w, 0, ch.ResolveHandler)
	ch.Send(0, FlitRef{Pkt: p, Seq: 0})
	if at := ch.NextUsableAt(1); at != 2 {
		t.Errorf("NextUsableAt mid-serialisation = %d, want 2", at)
	}
}

// TestChannelWakesOffLink: asking an off link when it is usable must issue
// a wake request (demand wake for the on/off ablation).
func TestChannelWakesOffLink(t *testing.T) {
	w := sim.NewWheel(64)
	link := powerlink.MustNew(powerlink.Config{
		Scheme:        linkmodel.SchemeVCSEL,
		Params:        linkmodel.DefaultParams(),
		LevelRates:    []float64{5, 10},
		Tbr:           20,
		Tv:            100,
		OffEnabled:    true,
		OffWakeCycles: 100,
	})
	ch := NewChannel(link, w, func(sim.Cycle, FlitRef) {})
	var now sim.Cycle
	for link.Level(now) > 0 {
		link.RequestStep(now, -1)
		now += 1000
	}
	link.RequestStep(now, -1) // off
	if link.Level(now) != powerlink.OffLevel {
		t.Fatal("setup: link not off")
	}
	at := ch.NextUsableAt(now)
	if at != now+100 {
		t.Errorf("NextUsableAt for off link = %d, want wake at %d", at, now+100)
	}
	if link.Level(now+100) != 0 {
		t.Errorf("link level after wake = %d, want 0", link.Level(now+100))
	}
}
