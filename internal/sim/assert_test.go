//go:build simdebug

package sim

import "testing"

// These tests only exist under -tags simdebug: they prove the assertion
// layer actually fires, so a CI chaos run passing with the tag on means the
// invariants were checked, not skipped.

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected a simdebug panic")
		}
	}()
	f()
}

func TestSkipToOverEventPanics(t *testing.T) {
	w := NewWheel(64)
	w.Schedule(5, 0, 1)
	mustPanic(t, func() { w.SkipTo(10) })
}

func TestSkipToUpToEventIsLegal(t *testing.T) {
	w := NewWheel(64)
	w.Schedule(5, 0, 1)
	w.SkipTo(4) // the event is still in the future; no panic
	w.BeginCycle(5)
}

func TestBeginCycleOverEventPanics(t *testing.T) {
	w := NewWheel(64)
	w.Schedule(3, 0, 1)
	mustPanic(t, func() { w.BeginCycle(7) })
}

func TestBeginCycleBackwardsPanics(t *testing.T) {
	w := NewWheel(64)
	w.BeginCycle(9)
	mustPanic(t, func() { w.BeginCycle(4) })
}

// TestBeginCycleSeqOrderPanics breaks the invariant the comparator-free
// harvest relies on — a bucket in Seq order — and expects the assertion.
func TestBeginCycleSeqOrderPanics(t *testing.T) {
	w := NewWheel(64)
	w.Schedule(5, 1, 1)
	w.Schedule(5, 2, 1)
	b := w.buckets[5]
	b[0], b[1] = b[1], b[0]
	mustPanic(t, func() { w.BeginCycle(5) })
}

func TestAssertfFormatsMessage(t *testing.T) {
	defer func() {
		if r := recover(); r != "simdebug: credit 9 > depth 8" {
			t.Fatalf("got %v", r)
		}
	}()
	Assertf(false, "credit %d > depth %d", 9, 8)
}
