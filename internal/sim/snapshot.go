package sim

import (
	"fmt"
	"slices"
)

// WheelEntryState is one scheduled event in exportable form: its absolute
// fire cycle and its full ordering coordinates. The closure itself is
// replaced by the handler descriptor ID, which a restore resolves back to
// the rebuilt closure via the caller-supplied resolver.
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

// ExportState captures every pending event with its absolute cycle and
// ordering coordinates, sorted by insertion sequence (a canonical total
// order: sequence numbers are globally unique). It fails if any entry
// carries handler ID 0, i.e. was scheduled through a legacy path that a
// checkpoint cannot reconstruct.
func (w *Wheel) ExportState() (WheelState, error) {
	st := WheelState{Now: w.now, Seq: w.seq}
	st.Entries = make([]WheelEntryState, 0, w.pending)
	var err error
	w.Each(func(at Cycle, e Entry) {
		if e.ID == 0 && err == nil {
			err = fmt.Errorf("sim: wheel entry key=%#x seq=%d at=%d has no handler id; not snapshotable", e.Key, e.Seq, at)
		}
		st.Entries = append(st.Entries, WheelEntryState{At: at, Key: e.Key, Seq: e.Seq, ID: e.ID})
	})
	if err != nil {
		return WheelState{}, err
	}
	slices.SortFunc(st.Entries, func(a, b WheelEntryState) int {
		if a.Seq < b.Seq {
			return -1
		}
		if a.Seq > b.Seq {
			return 1
		}
		return 0
	})
	return st, nil
}

// RestoreState wipes the wheel and reloads it from an exported state,
// preserving every entry's At/Key/Seq/ID verbatim so the canonical
// (Key, Seq) execution order after restore matches the original run
// exactly. resolve maps a handler descriptor back to the (rebuilt) event
// closure; an unresolvable ID is an error, as is an entry at or before the
// restored clock (a restored wheel must be strictly monotonic).
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
		ev, ok := resolve(e.ID)
		if !ok || ev == nil {
			return fmt.Errorf("sim: no handler for wheel entry id %#x (at=%d key=%#x)", e.ID, e.At, e.Key)
		}
		w.insert(e.At, Entry{Key: e.Key, Seq: e.Seq, ID: e.ID, Ev: ev})
	}
	if Debug {
		if next, ok := w.NextEventAt(); ok {
			Assertf(next > w.now, "wheel: restore left an event at %d at or before the clock %d", next, w.now)
		}
		Assertf(w.pending == len(st.Entries), "wheel: restore pending mismatch %d != %d", w.pending, len(st.Entries))
	}
	return nil
}
