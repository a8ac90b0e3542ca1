package sim

import (
	"cmp"
	"fmt"
	"slices"
)

// WheelEntryState is one scheduled event in exportable form: its absolute
// fire cycle and the entry's ordering coordinates and handler descriptor.
type WheelEntryState struct {
	At  Cycle
	Key uint64
	Seq uint64
	ID  uint64
}

// WheelState is the complete exportable state of a Wheel.
type WheelState struct {
	Now     Cycle
	Seq     uint64 // insertion-sequence counter at snapshot time
	Entries []WheelEntryState
}

// ExportState captures every pending event with its absolute cycle,
// ordering coordinates and handler descriptor, sorted by insertion sequence
// (a canonical total order: sequence numbers are globally unique).
func (w *Wheel) ExportState() WheelState {
	st := WheelState{Now: w.now, Seq: w.seq}
	st.Entries = make([]WheelEntryState, 0, w.pending)
	w.Each(func(at Cycle, e Entry) {
		st.Entries = append(st.Entries, WheelEntryState{At: at, Key: e.Key, Seq: e.Seq, ID: e.ID})
	})
	slices.SortFunc(st.Entries, func(a, b WheelEntryState) int { return cmp.Compare(a.Seq, b.Seq) })
	return st
}

// RestoreState wipes the wheel and reloads it from an exported state,
// preserving every entry's At/Key/Seq/ID verbatim so the canonical
// (Key, Seq) execution order after restore matches the original run
// exactly. resolve is the caller's dispatch table — the function that maps
// a harvested entry's descriptor to its handler — and every entry must
// resolve: a descriptor accepted here would otherwise fail only when it
// fires. An entry at or before the restored clock is an error too (a
// restored wheel must be strictly monotonic).
func (w *Wheel) RestoreState(st WheelState, resolve func(id uint64) (Event, bool)) error {
	for idx, b := range w.buckets {
		if b != nil {
			clear(b)
			w.free = append(w.free, b[:0])
			w.buckets[idx] = nil
		}
	}
	clear(w.occ)
	clear(w.far)
	w.far = w.far[:0]
	w.pending = 0
	w.now = st.Now
	w.seq = st.Seq
	var prev uint64
	for _, e := range st.Entries {
		if e.At <= st.Now {
			return fmt.Errorf("sim: restored wheel entry at %d is not after the restored clock %d", e.At, st.Now)
		}
		if e.Seq > st.Seq {
			return fmt.Errorf("sim: restored wheel entry seq %d exceeds the sequence counter %d", e.Seq, st.Seq)
		}
		// Harvest order relies on every bucket holding its entries in Seq
		// order, which re-inserting in export order preserves.
		if e.Seq <= prev {
			return fmt.Errorf("sim: restored wheel entry seq %d does not follow seq %d", e.Seq, prev)
		}
		prev = e.Seq
		if ev, ok := resolve(e.ID); !ok || ev == nil {
			return fmt.Errorf("sim: no handler for wheel entry id %#x (at=%d key=%#x)", e.ID, e.At, e.Key)
		}
		w.insert(e.At, Entry{Key: e.Key, Seq: e.Seq, ID: e.ID})
	}
	if Debug {
		if next, ok := w.NextEventAt(); ok {
			Assertf(next > w.now, "wheel: restore left an event at %d at or before the clock %d", next, w.now)
		}
		Assertf(w.pending == len(st.Entries), "wheel: restore pending mismatch %d != %d", w.pending, len(st.Entries))
	}
	return nil
}
