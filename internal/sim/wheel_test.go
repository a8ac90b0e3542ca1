package sim

import (
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

// testWheel pairs a wheel with a dispatch table, the way the network pairs
// its wheel with resolveHandler: at registers a closure under a fresh
// descriptor (its 1-based table index) and run fires every harvested entry
// through the table.
type testWheel struct {
	*Wheel
	evs []Event
}

func newTestWheel(size int) *testWheel { return &testWheel{Wheel: NewWheel(size)} }

// at schedules ev at cycle at under key.
func (w *testWheel) at(at Cycle, key uint64, ev Event) {
	w.evs = append(w.evs, ev)
	w.Schedule(at, key, uint64(len(w.evs)))
}

// run harvests cycle now and runs its events in canonical order, the way
// the network's Step drains the wheel.
func (w *testWheel) run(now Cycle) {
	for _, e := range w.BeginCycle(now) {
		w.evs[e.ID-1](now)
	}
}

func TestWheelFiresAtScheduledCycle(t *testing.T) {
	w := newTestWheel(16)
	fired := map[Cycle]bool{}
	for _, at := range []Cycle{1, 3, 7, 15} {
		at := at
		w.at(at, 0, func(now Cycle) {
			if now != at {
				t.Errorf("event scheduled for %d fired at %d", at, now)
			}
			fired[at] = true
		})
	}
	for c := Cycle(0); c < 20; c++ {
		w.run(c)
	}
	if len(fired) != 4 {
		t.Errorf("fired %d events, want 4", len(fired))
	}
	if w.Pending() != 0 {
		t.Errorf("pending = %d after drain", w.Pending())
	}
}

func TestWheelFarFuture(t *testing.T) {
	w := newTestWheel(8)
	var got Cycle = -1
	w.at(1000, 0, func(now Cycle) { got = now })
	for c := Cycle(0); c <= 1000; c++ {
		w.run(c)
	}
	if got != 1000 {
		t.Errorf("far event fired at %d, want 1000", got)
	}
}

func TestWheelSameCycleChaining(t *testing.T) {
	// An event that schedules another for its own cycle chains it onto the
	// next cycle: the harvested bucket is never appended to.
	w := newTestWheel(8)
	var fired []Cycle
	w.at(5, 0, func(now Cycle) {
		fired = append(fired, now)
		w.at(now, 0, func(at Cycle) { fired = append(fired, at) })
	})
	for c := Cycle(0); c < 8; c++ {
		w.run(c)
	}
	if len(fired) != 2 || fired[0] != 5 || fired[1] != 6 {
		t.Errorf("chained events fired at %v, want [5 6]", fired)
	}
}

func TestWheelPastScheduleOutsideAdvance(t *testing.T) {
	// Scheduling at or before `now` defers to now+1 (that bucket has
	// already been harvested).
	w := newTestWheel(8)
	w.run(0)
	w.run(1)
	fired := Cycle(-1)
	w.at(1, 0, func(now Cycle) { fired = now })
	w.run(2)
	if fired != 2 {
		t.Errorf("past-scheduled event fired at %d, want deferral to 2", fired)
	}
}

func TestWheelHorizonBoundary(t *testing.T) {
	// An event exactly `size` cycles ahead must go to the far heap, not
	// collide with the current bucket.
	w := newTestWheel(8)
	fired := Cycle(-1)
	w.run(0)
	w.at(8, 0, func(now Cycle) { fired = now })
	w.run(0) // same bucket index as 8 — must NOT fire
	if fired != -1 {
		t.Fatal("event for cycle 8 fired at cycle 0 (wheel wrap bug)")
	}
	for c := Cycle(1); c <= 8; c++ {
		w.run(c)
	}
	if fired != 8 {
		t.Errorf("fired at %d, want 8", fired)
	}
}

func TestWheelBadSizePanics(t *testing.T) {
	for _, size := range []int{0, -4, 3, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewWheel(%d) did not panic", size)
				}
			}()
			NewWheel(size)
		}()
	}
}

func TestWheelNextEventAtEmpty(t *testing.T) {
	w := newTestWheel(16)
	if at, ok := w.NextEventAt(); ok {
		t.Errorf("empty wheel reported next event at %d", at)
	}
	w.run(5)
	if _, ok := w.NextEventAt(); ok {
		t.Error("empty wheel reported a next event after a harvest")
	}
}

func TestWheelNextEventAtNear(t *testing.T) {
	w := newTestWheel(16)
	nop := Event(func(Cycle) {})
	w.run(0)
	w.at(7, 0, nop)
	w.at(12, 0, nop)
	if at, ok := w.NextEventAt(); !ok || at != 7 {
		t.Errorf("NextEventAt = %d,%v, want 7,true", at, ok)
	}
	// After the first event fires, the next is 12.
	for c := Cycle(1); c <= 7; c++ {
		w.run(c)
	}
	if at, ok := w.NextEventAt(); !ok || at != 12 {
		t.Errorf("NextEventAt = %d,%v, want 12,true", at, ok)
	}
}

func TestWheelNextEventAtWrap(t *testing.T) {
	// The occupied bucket index is numerically below the current bucket
	// index: the circular scan must wrap and still find the nearest cycle.
	w := newTestWheel(16)
	nop := Event(func(Cycle) {})
	for c := Cycle(0); c <= 13; c++ {
		w.run(c)
	}
	w.at(17, 0, nop) // bucket 1, current bucket 13
	if at, ok := w.NextEventAt(); !ok || at != 17 {
		t.Errorf("NextEventAt = %d,%v, want 17,true", at, ok)
	}
}

func TestWheelNextEventAtFar(t *testing.T) {
	w := newTestWheel(16)
	nop := Event(func(Cycle) {})
	w.at(1000, 0, nop)
	if at, ok := w.NextEventAt(); !ok || at != 1000 {
		t.Errorf("NextEventAt = %d,%v, want 1000,true (far heap)", at, ok)
	}
	// A nearer bucketed event wins over the far top.
	w.at(9, 0, nop)
	if at, ok := w.NextEventAt(); !ok || at != 9 {
		t.Errorf("NextEventAt = %d,%v, want 9,true", at, ok)
	}
}

func TestWheelSkipToAdvance(t *testing.T) {
	// Skipping over a verified-empty gap then advancing at the next event
	// cycle fires the event exactly as consecutive stepping would.
	w := newTestWheel(16)
	fired := Cycle(-1)
	w.run(0)
	w.at(9, 0, func(now Cycle) { fired = now })
	at, ok := w.NextEventAt()
	if !ok || at != 9 {
		t.Fatalf("NextEventAt = %d,%v, want 9,true", at, ok)
	}
	w.SkipTo(at - 1)
	w.run(at)
	if fired != 9 {
		t.Errorf("event fired at %d, want 9", fired)
	}
	// After the skip, deferred past-scheduling still lands at now+1.
	deferred := Cycle(-1)
	w.at(2, 0, func(now Cycle) { deferred = now })
	w.run(10)
	if deferred != 10 {
		t.Errorf("past schedule after skip fired at %d, want 10", deferred)
	}
}

// TestWheelSkipEquivalence: advancing only at NextEventAt cycles (skipping
// the gaps) fires every event at the same cycle as consecutive stepping.
func TestWheelSkipEquivalence(t *testing.T) {
	run := func(skip bool) map[int]Cycle {
		r := NewRNG(42)
		w := newTestWheel(32)
		got := map[int]Cycle{}
		for i := 0; i < 100; i++ {
			id := i
			at := Cycle(1 + r.Intn(500))
			w.at(at, 0, func(fireAt Cycle) { got[id] = fireAt })
		}
		now := Cycle(0)
		for now < 600 {
			if skip {
				at, ok := w.NextEventAt()
				if !ok || at > 600 {
					break
				}
				w.SkipTo(at - 1)
				now = at
			} else {
				now++
			}
			w.run(now)
		}
		return got
	}
	stepped, skipped := run(false), run(true)
	if len(stepped) != 100 || len(skipped) != 100 {
		t.Fatalf("fired %d stepped, %d skipped, want 100 each", len(stepped), len(skipped))
	}
	for id, at := range stepped {
		if skipped[id] != at {
			t.Errorf("event %d: stepped fired at %d, skipped at %d", id, at, skipped[id])
		}
	}
}

// TestWheelPropertyAllFire: random schedules all fire exactly once at
// their scheduled cycle.
func TestWheelPropertyAllFire(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		w := newTestWheel(32)
		const n = 200
		want := map[int]Cycle{}
		got := map[int]Cycle{}
		now := Cycle(0)
		scheduled := 0
		for scheduled < n {
			// advance a random amount, scheduling random future events
			for k := 0; k < 3 && scheduled < n; k++ {
				id := scheduled
				at := now + 1 + Cycle(r.Intn(100))
				want[id] = at
				w.at(at, 0, func(fireAt Cycle) { got[id] = fireAt })
				scheduled++
			}
			next := now + 1 + Cycle(r.Intn(5))
			for ; now < next; now++ {
				w.run(now)
			}
		}
		for ; now < 1000; now++ {
			w.run(now)
		}
		if len(got) != n {
			return false
		}
		for id, at := range want {
			if got[id] != at {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestWheelRecurringSamplerBoundsSkips models the telemetry sampler: a
// self-rearming event every 512 cycles. NextEventAt must surface it as the
// skip bound at every point in the cycle — including exactly at the
// boundary — so a fast-forwarding caller can never jump over a sample.
func TestWheelRecurringSamplerBoundsSkips(t *testing.T) {
	const period = 512
	w := newTestWheel(4096)
	var fired []Cycle
	var rearm func(at Cycle)
	rearm = func(at Cycle) {
		w.at(at+period, 0, func(now Cycle) {
			fired = append(fired, now)
			rearm(now)
		})
	}
	rearm(0)

	now := Cycle(0)
	for len(fired) < 10 {
		next, ok := w.NextEventAt()
		if !ok {
			t.Fatal("recurring sampler vanished from the wheel")
		}
		if want := Cycle(len(fired)+1) * period; next != want {
			t.Fatalf("NextEventAt = %d after %d firings, want %d", next, len(fired), want)
		}
		// Skip to the cycle just before the event — the legal maximum — then
		// advance through the boundary itself.
		if next-1 > now {
			w.SkipTo(next - 1)
		}
		now = next
		w.run(now)
		if w.Pending() != 1 {
			t.Fatalf("pending = %d after firing, want 1 (the re-armed sampler)", w.Pending())
		}
	}
	for i, at := range fired {
		if want := Cycle(i+1) * period; at != want {
			t.Errorf("sample %d fired at %d, want %d", i, at, want)
		}
	}

	// SkipTo at the boundary minus one must leave the event intact even
	// when the skip lands on the same bucket index modulo wheel size: the
	// next NextEventAt still finds it one cycle ahead.
	next, ok := w.NextEventAt()
	if !ok || next != now+period {
		t.Fatalf("after loop: NextEventAt = %d,%v, want %d", next, ok, now+period)
	}
	w.SkipTo(next - 1)
	if got, ok := w.NextEventAt(); !ok || got != next {
		t.Fatalf("NextEventAt after boundary skip = %d,%v, want %d", got, ok, next)
	}
}

// TestWheelSkipToOntoBarrier skips the clock exactly onto a wrap barrier (a
// multiple of the wheel size) and then steps across it: the skip must leave
// the bucket occupancy intact so events on both sides of the barrier still
// fire on their cycles. This is the sharded engine's idle fast-forward
// landing precisely on a window boundary.
func TestWheelSkipToOntoBarrier(t *testing.T) {
	w := newTestWheel(16)
	w.BeginCycle(0)
	fired := map[Cycle]bool{}
	mark := func(now Cycle) { fired[now] = true }
	w.at(48, 7, mark) // far heap: 48-0 >= 16
	if at, ok := w.NextEventAt(); !ok || at != 48 {
		t.Fatalf("NextEventAt = %v,%v, want 48,true", at, ok)
	}
	w.SkipTo(32) // exactly a wheel-size multiple, event-free per NextEventAt
	// From the barrier, schedule within the new window and on its last cycle.
	w.at(40, 3, mark)
	for c := Cycle(33); c <= 48; c++ {
		w.run(c)
	}
	if !fired[40] || !fired[48] {
		t.Errorf("fired = %v, want events at 40 and 48", fired)
	}
	if w.Pending() != 0 {
		t.Errorf("pending = %d after drain", w.Pending())
	}
}

// TestWheelBeginCycleEmpty: harvesting a cycle with zero events must return
// an empty batch and leave the wheel fully usable — the sharded engine hits
// this every idle cycle between policy windows.
func TestWheelBeginCycleEmpty(t *testing.T) {
	w := newTestWheel(8)
	w.at(5, 1, func(Cycle) {})
	for c := Cycle(0); c < 5; c++ {
		if batch := w.BeginCycle(c); len(batch) != 0 {
			t.Fatalf("BeginCycle(%d) returned %d entries on an empty cycle", c, len(batch))
		}
		if w.Pending() != 1 {
			t.Fatalf("empty BeginCycle(%d) changed pending to %d", c, w.Pending())
		}
	}
	if batch := w.BeginCycle(5); len(batch) != 1 {
		t.Fatalf("BeginCycle(5) returned %d entries, want 1", len(batch))
	}
	if w.Pending() != 0 {
		t.Errorf("pending = %d after harvest", w.Pending())
	}
}

// TestWheelBeginCycleHorizonEdge pins the bucket/far-heap boundary under
// the harvesting API: from cycle now, now+size-1 is the last bucketed cycle
// and now+size must overflow to the far heap — and BeginCycle must harvest
// both on their exact cycles, in (Key, Seq) order when they collide.
func TestWheelBeginCycleHorizonEdge(t *testing.T) {
	w := newTestWheel(8)
	w.BeginCycle(0)
	var gotKeys []uint64
	rec := func(key uint64) Event {
		return func(Cycle) { gotKeys = append(gotKeys, key) }
	}
	w.at(7, 9, rec(9)) // last bucketed cycle
	w.at(8, 4, rec(4)) // first far-heap cycle
	if len(w.far) != 1 {
		t.Fatalf("far heap holds %d events, want 1 (cycle 8 must overflow the horizon)", len(w.far))
	}
	// A far event maturing on the same cycle as a bucketed one must merge
	// into a single sorted batch.
	w.at(8, 2, rec(2))
	if len(w.far) != 2 {
		t.Fatalf("far heap holds %d events, want 2", len(w.far))
	}
	for c := Cycle(1); c <= 8; c++ {
		batch := w.BeginCycle(c)
		switch c {
		case 7:
			if len(batch) != 1 {
				t.Fatalf("BeginCycle(7) returned %d entries, want 1", len(batch))
			}
		case 8:
			if len(batch) != 2 {
				t.Fatalf("BeginCycle(8) returned %d entries, want 2", len(batch))
			}
			if batch[0].Key != 2 || batch[1].Key != 4 {
				t.Fatalf("BeginCycle(8) keys = [%d %d], want sorted [2 4]", batch[0].Key, batch[1].Key)
			}
		default:
			if len(batch) != 0 {
				t.Fatalf("BeginCycle(%d) returned %d entries, want 0", c, len(batch))
			}
		}
		for _, e := range batch {
			w.evs[e.ID-1](c)
		}
	}
	want := []uint64{9, 2, 4}
	if len(gotKeys) != 3 || gotKeys[0] != want[0] || gotKeys[1] != want[1] || gotKeys[2] != want[2] {
		t.Errorf("fired key order = %v, want %v", gotKeys, want)
	}
}

// TestWheelBeginCycleSameCycleDefers: under the harvesting API a callback
// that schedules for the already-harvested cycle lands on the next one —
// the canonical engine never sees same-cycle insertions.
func TestWheelBeginCycleSameCycleDefers(t *testing.T) {
	w := newTestWheel(8)
	var firedAt Cycle = -1
	w.at(3, 1, func(now Cycle) {
		w.at(now, 1, func(at Cycle) { firedAt = at })
	})
	for c := Cycle(0); c <= 4; c++ {
		w.run(c)
	}
	if firedAt != 4 {
		t.Errorf("same-cycle insertion fired at %d, want deferral to 4", firedAt)
	}
}

// TestWheelHarvestOrderRandomized checks every harvested run against a
// reference stable sort by (Key, Seq) of what was scheduled for that cycle.
// The stream mixes dense and sparse cycles over many owners and srcs, key-0
// coordinator events, owners at the top of the actor range, far-horizon
// entries, same-cycle deferrals from inside callbacks, skips, bucket wrap,
// and a mid-stream ExportState/RestoreState into a fresh wheel.
func TestWheelHarvestOrderRandomized(t *testing.T) {
	const (
		size      = 64
		end       = Cycle(4_000)
		restoreAt = Cycle(1_777)
	)
	type rec struct{ Key, Seq, ID uint64 }
	r := NewRNG(99)
	want := map[Cycle][]rec{}
	w := NewWheel(size)
	var seq uint64
	var spawn Event
	schedule := func(at Cycle) {
		owner := uint32(1 + r.Intn(700))
		switch r.Intn(20) {
		case 0:
			owner = 0
		case 1:
			owner = MaxActor - uint32(r.Intn(3))
		}
		key := ActorKey(owner, uint32(r.Intn(8)))
		seq++
		w.Schedule(at, key, seq)
		if at <= w.now {
			at = w.now + 1
		}
		want[at] = append(want[at], rec{Key: key, Seq: seq, ID: seq})
	}
	spawn = func(now Cycle) {
		if now >= end || r.Intn(3) != 0 {
			return
		}
		for k := 1 + r.Intn(2); k > 0; k-- {
			switch r.Intn(6) {
			case 0:
				schedule(now) // deferred to now+1
			case 1:
				schedule(now + size + Cycle(r.Intn(3*size))) // far heap
			default:
				schedule(now + 1 + Cycle(r.Intn(size-1)))
			}
		}
	}
	for now := Cycle(1); now <= end || w.Pending() > 0; now++ {
		if now == restoreAt {
			st := w.ExportState()
			w = NewWheel(size)
			if err := w.RestoreState(st, func(uint64) (Event, bool) { return spawn, true }); err != nil {
				t.Fatalf("restore at %d: %v", now, err)
			}
		}
		if now < end/2 {
			burst := r.Intn(4)
			if r.Intn(16) == 0 {
				burst = 20 + r.Intn(400)
			}
			for k := 0; k < burst; k++ {
				schedule(now + Cycle(r.Intn(2*size)))
			}
		} else if next, ok := w.NextEventAt(); ok && next > now+1 {
			w.SkipTo(next - 1)
			now = next
		}
		ref := want[now]
		delete(want, now)
		slices.SortStableFunc(ref, func(a, b rec) int {
			if a.Key != b.Key {
				if a.Key < b.Key {
					return -1
				}
				return 1
			}
			if a.Seq < b.Seq {
				return -1
			}
			return 1
		})
		run := w.BeginCycle(now)
		if len(run) != len(ref) {
			t.Fatalf("cycle %d: harvested %d entries, want %d", now, len(run), len(ref))
		}
		for i, e := range run {
			if got := (rec{Key: e.Key, Seq: e.Seq, ID: e.ID}); got != ref[i] {
				t.Fatalf("cycle %d entry %d: got %+v, want %+v", now, i, got, ref[i])
			}
		}
		for range run {
			spawn(now)
		}
	}
	if len(want) != 0 || w.Pending() != 0 {
		t.Errorf("after the stream: %d cycles still expected, %d events pending", len(want), w.Pending())
	}
}

// TestWheelSteadyStateAllocs pins the recycled storage: once bucket
// arrays, the far heap and the harvest scratch have grown to the stream's
// peak, scheduling and harvesting allocate nothing. The count is exact:
// testing.AllocsPerRun rounds the per-run mean down, so up to one
// allocation per run would read as zero.
func TestWheelSteadyStateAllocs(t *testing.T) {
	if Debug {
		t.Skip("simdebug assertions box their arguments on every harvest")
	}
	for _, tc := range []struct {
		name  string
		ahead Cycle
	}{
		{"near", 1},
		{"far", 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWheel(64)
			now := Cycle(0)
			cycle := func() {
				now++
				for k := 0; k < 40; k++ {
					key := ActorKey(uint32(1+k*37%600), uint32(k%3))
					w.Schedule(now+tc.ahead+Cycle(k%4), key, 1)
				}
				w.BeginCycle(now)
			}
			for i := 0; i < 500; i++ {
				cycle()
			}
			if n := mallocs(200, cycle); n != 0 {
				t.Errorf("%d allocations over 200 scheduled-and-harvested cycles, want 0", n)
			}
		})
	}
}

// mallocs returns the exact number of heap allocations made by runs calls
// of f.
func mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
