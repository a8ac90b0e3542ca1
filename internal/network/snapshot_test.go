package network

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// exportLoaded runs cfg under uniform load for a few thousand cycles and
// returns the exported state, which must hold pending wheel entries.
func exportLoaded(t *testing.T, cfg Config) *State {
	t.Helper()
	n := MustNew(cfg, traffic.NewUniform(cfg.Nodes(), 0.3, 5))
	n.RunTo(3_000)
	st, err := n.ExportState()
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	if len(st.Wheel.Entries) == 0 {
		t.Fatal("exported wheel holds no entries")
	}
	return st
}

// restoreWithID restores st into a fresh network built from cfg, with the
// first wheel entry's descriptor replaced by id. A panic is returned as an
// error prefixed "panic", so callers can tell it from a rejection.
func restoreWithID(cfg Config, st *State, id uint64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	mut := *st
	mut.Wheel.Entries = slices.Clone(st.Wheel.Entries)
	mut.Wheel.Entries[0].ID = id
	return MustNew(cfg, traffic.NewUniform(cfg.Nodes(), 0.3, 5)).RestoreState(&mut)
}

// TestRestoreRejectsBadHandlerIDs rewrites one wheel entry of a real
// exported state to a descriptor that names no handler of the restore
// target, for every handler kind, and requires RestoreState to refuse it
// without panicking. Dispatch resolves descriptors through the same table,
// so an accepted bad descriptor would be a nil call when the entry fires.
func TestRestoreRejectsBadHandlerIDs(t *testing.T) {
	// bare: no reliability, recovery or telemetry; DVS controllers, which
	// arm no timers.
	bare := smallConfig()
	// full: every optional subsystem on, rules controllers with hold timers.
	full := recoveryConfig()
	full.Fault = fault.Config{BERFloor: 1e-4}
	full.Telemetry = telemetry.Config{Enabled: true, SampleEvery: 512, RingCap: 64}
	full.Policy.Kind = policy.KindRules

	probeBare, probeFull := MustNew(bare, nil), MustNew(full, nil)
	ports, vcs := probeBare.Routers()[0].Ports(), probeBare.Routers()[0].VCs()
	missingDir := -1 // a direction router 0 (a mesh corner) has no link in
	for dir := 0; dir < 4; dir++ {
		if probeFull.meshOut[0][dir] == nil {
			missingDir = dir
		}
	}
	if missingDir < 0 {
		t.Fatal("router 0 has a link in every direction")
	}
	id := sim.HandlerID
	cases := []struct {
		name string
		full bool
		id   uint64
	}{
		{"deliver/link out of range", false, id(sim.HChanDeliver, uint32(len(probeBare.channels)), 0)},
		{"accept/no reliability", false, id(sim.HChanAccept, 0, 0)},
		{"feedback/no reliability", false, id(sim.HChanFeedback, 0, 0)},
		{"pump/no reliability", false, id(sim.HChanPump, 0, 0)},
		{"watchdog/no reliability", false, id(sim.HChanWatchdog, 0, 0)},
		{"accept/link out of range", true, id(sim.HChanAccept, uint32(len(probeFull.channels)), 0)},
		{"feedback/link out of range", true, id(sim.HChanFeedback, uint32(len(probeFull.channels)), 0)},
		{"pump/link out of range", true, id(sim.HChanPump, uint32(len(probeFull.channels)), 0)},
		{"watchdog/link out of range", true, id(sim.HChanWatchdog, uint32(len(probeFull.channels)), 0)},
		{"hol/router out of range", false, id(sim.HRouterHOL, uint32(len(probeBare.routers)), 0)},
		{"hol/input VC out of range", false, id(sim.HRouterHOL, 0, uint16(ports*vcs))},
		{"credit/router out of range", false, id(sim.HRouterCredit, uint32(len(probeBare.routers)), 0)},
		{"credit/input VC out of range", false, id(sim.HRouterCredit, 0, uint16(ports*vcs))},
		{"wake/router out of range", false, id(sim.HRouterWake, uint32(len(probeBare.routers)), 0)},
		{"wake/output port out of range", false, id(sim.HRouterWake, 0, uint16(ports))},
		{"nic/node out of range", false, id(sim.HNICWake, uint32(len(probeBare.nics)), 0)},
		{"refresh/recovery off", false, id(sim.HRecRefresh, 0, DirE)},
		{"refresh/router out of range", true, id(sim.HRecRefresh, uint32(len(probeFull.routers)), DirE)},
		{"refresh/direction out of range", true, id(sim.HRecRefresh, 0, 4)},
		{"refresh/edge router has no link", true, id(sim.HRecRefresh, 0, uint16(missingDir))},
		{"scan/recovery off", false, id(sim.HRecScan, 0, 0)},
		{"sample/telemetry off", false, id(sim.HTelemSample, 0, 0)},
		{"marker/telemetry off", false, id(sim.HTelemMarker, 0, 0)},
		{"marker/ordinal out of range", true, id(sim.HTelemMarker, 0, 0)}, // no fault windows, so no markers
		{"timer/ordinal out of range", false, id(sim.HPolicyTimer, uint32(len(probeBare.controllers)), 0)},
		{"timer/policy without timers", false, id(sim.HPolicyTimer, 0, 0)}, // DVS arms none
		{"timer/rules ordinal out of range", true, id(sim.HPolicyTimer, uint32(len(probeFull.controllers)), 0)},
		{"kind 0", false, 0},
		{"kind 0 with fields", true, id(0, 1, 1)},
		{"undeclared kind", false, id(sim.HPolicyTimer+1, 0, 0)},
		{"undeclared kind 255", true, id(255, 0, 0)},
	}
	kinds := map[uint8]bool{}
	for _, tc := range cases {
		kinds[sim.HandlerKind(tc.id)] = true
	}
	for k := sim.HChanDeliver; k <= sim.HPolicyTimer; k++ {
		if !kinds[k] {
			t.Errorf("handler kind %d has no rejection case", k)
		}
	}

	stBare, stFull := exportLoaded(t, bare), exportLoaded(t, full)
	for _, c := range []struct {
		cfg Config
		st  *State
	}{{bare, stBare}, {full, stFull}} {
		if err := restoreWithID(c.cfg, c.st, c.st.Wheel.Entries[0].ID); err != nil {
			t.Fatalf("unmodified state does not restore: %v", err)
		}
	}
	for _, tc := range cases {
		cfg, st := bare, stBare
		if tc.full {
			cfg, st = full, stFull
		}
		err := restoreWithID(cfg, st, tc.id)
		switch {
		case err == nil:
			t.Errorf("%s: restore accepted descriptor %#x", tc.name, tc.id)
		case strings.HasPrefix(err.Error(), "panic"):
			t.Errorf("%s: restore of descriptor %#x %v", tc.name, tc.id, err)
		}
	}
}

// TestTimerAndRefreshDispatchAllocs pins the pre-built handlers: arming
// and firing policy hold timers, and recovery liveness refreshes that fire,
// re-arm across a link-down window and recompute reachability, allocate
// nothing.
func TestTimerAndRefreshDispatchAllocs(t *testing.T) {
	if sim.Debug {
		t.Skip("simdebug assertions box their arguments")
	}
	cfg := recoveryConfig()
	cfg.Policy.Kind = policy.KindRules
	li := meshLinkIndex(t, cfg, cfg.RouterAt(1, 1), DirE)
	// Both windows lie beyond the wheel horizon at construction, so their
	// refreshes start in the far heap; the first window grows the merge
	// scratch that the second, measured one then reuses.
	cfg.Fault = fault.Config{LinkFailures: []fault.LinkFailure{
		{Link: li, At: 5_000, RepairAt: 5_400},
		{Link: li, At: 6_000, RepairAt: 6_400},
	}}
	n := MustNew(cfg, nil)
	if len(n.controllers) == 0 {
		t.Fatal("no policy controllers")
	}
	// Grow the wheel's recycled storage too, so the measurement sees
	// dispatch rather than bucket growth: 16 timers in each of 256 cycles
	// leave 256 bucket arrays of capacity 16 on the free list. A timer that
	// finds its controller not holding is a no-op.
	n.RunTo(4_600)
	for at := n.Now() + 1; at <= 4_856; at++ {
		for k := 0; k < 16; k++ {
			n.ArmPolicyTimer(at, k%len(n.controllers))
		}
	}
	n.RunTo(5_900)
	recomputes := n.rec.recomputes
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for now := n.Now(); now < 6_500; now = n.Now() {
		if now%50 == 0 {
			n.ArmPolicyTimer(now+20, int(now/50)%len(n.controllers))
		}
		n.Step()
	}
	runtime.ReadMemStats(&after)
	if got := n.rec.recomputes - recomputes; got != 2 {
		t.Fatalf("%d reachability recomputes over the window, want 2 (down, up)", got)
	}
	if m := after.Mallocs - before.Mallocs; m != 0 {
		t.Errorf("%d allocations over 600 cycles of timer and refresh dispatch, want 0", m)
	}
}
