package sim

import (
	"math/bits"
	"slices"
)

// Event is a handler callback. Wheel entries do not hold events; they name
// them by handler descriptor (see HandlerID), and the caller resolves each
// harvested descriptor to its Event. Events must not schedule into the past.
type Event func(now Cycle)

// Entry is one scheduled event: the actor key that owns it (see ActorKey),
// the global insertion sequence number, and the handler descriptor naming
// what runs. BeginCycle returns a cycle's entries sorted by (Key, Seq) — the
// canonical order the sharded network engine executes in. An entry is plain
// data, so the same triple is what a checkpoint stores and what dispatch
// resolves.
type Entry struct {
	Key uint64
	Seq uint64
	ID  uint64
}

// Wheel is a timing wheel for near-future events with a heap overflow for
// far-future ones. Almost all simulator events (flit arrivals, channel
// free, credit returns) land within a few cycles; the wheel makes those
// O(1). Longer waits (CDR relock, link wake-up) spill into the heap.
//
// A per-bucket occupancy bitmap (one bit per bucket) makes NextEventAt a
// few word scans, which is what lets the surrounding simulator fast-forward
// over idle gaps instead of advancing cycle by cycle.
//
// There is one drain discipline: BeginCycle hands a cycle's events back
// sorted by (Key, Seq) — a total order that is independent of how many
// shards produced them, as long as every key has a single deterministic
// producer — and the caller resolves each entry's descriptor and runs the
// handler (DESIGN.md §6g). The ordering is a
// stable sort on Key alone: a harvested run is already in Seq order
// (matured far-heap events, then the bucket), so no comparator ever looks
// at Seq.
//
// Storage is recycled: a harvested bucket's backing array goes on a free
// list and the next empty bucket to receive an entry takes it back, so
// memory is bounded by the buckets occupied at once and a steady-state
// cycle allocates nothing.
type Wheel struct {
	buckets [][]Entry // nil when empty; see free
	//optolint:derived occupancy bitmap, rebuilt by the restore path's re-inserts
	occ     []uint64 // bit b set iff buckets[b] is non-empty
	mask    Cycle
	now     Cycle
	horizon Cycle
	far     farHeap
	pending int
	seq     uint64
	//optolint:derived BeginCycle output, reused across cycles
	run []Entry
	//optolint:derived BeginCycle scratch for matured far events, reused across cycles
	merge []Entry
	//optolint:derived empty recycled bucket arrays, holding no entries
	free [][]Entry
	//optolint:derived BeginCycle owner-group histogram scratch
	hist []int32
}

// NewWheel returns a wheel with the given power-of-two bucket count.
func NewWheel(size int) *Wheel {
	if size <= 0 || size&(size-1) != 0 {
		panic("sim: wheel size must be a positive power of two")
	}
	return &Wheel{
		buckets: make([][]Entry, size),
		occ:     make([]uint64, (size+63)/64),
		mask:    Cycle(size - 1),
		horizon: Cycle(size),
	}
}

// Schedule registers handler id to fire at cycle at under the given
// ordering key (0 is the coordinator band). A request for the current
// cycle (or earlier) is deferred to the next cycle, since the current
// cycle's bucket has already been harvested. The sequence number is
// assigned here, at insertion, so the canonical (Key, Seq) order of a cycle
// is fixed by the order Schedule calls reach the wheel — which the sharded
// engine makes deterministic by draining staged schedules in shard order.
func (w *Wheel) Schedule(at Cycle, key, id uint64) {
	if at <= w.now {
		at = w.now + 1
	}
	w.seq++
	w.insert(at, Entry{Key: key, Seq: w.seq, ID: id})
}

// insert files e under cycle at (> w.now): in its bucket when at lies
// within the horizon, in the far heap otherwise. Schedules and restores
// share it, so both fill the same recycled storage.
func (w *Wheel) insert(at Cycle, e Entry) {
	w.pending++
	if at-w.now >= w.horizon {
		w.far.push(farEvent{at: at, e: e})
		return
	}
	idx := at & w.mask
	b := w.buckets[idx]
	if b == nil {
		if k := len(w.free); k > 0 {
			b = w.free[k-1]
			w.free = w.free[:k-1]
		}
		w.occ[idx>>6] |= 1 << (uint(idx) & 63)
	}
	w.buckets[idx] = append(b, e)
}

// BeginCycle removes every event scheduled for cycle now — matured far-heap
// events included — and returns them sorted by (Key, Seq): key-0
// coordinator events first, then each actor's events in insertion order.
// The caller owns running them; the returned slice is valid until the next
// BeginCycle. Callbacks that schedule for the current cycle are deferred to
// the next one (the bucket has already been harvested), so the canonical
// engine never sees same-cycle insertions.
func (w *Wheel) BeginCycle(now Cycle) []Entry {
	if Debug {
		Assertf(now >= w.now, "wheel: BeginCycle(%d) moves the clock backwards from %d", now, w.now)
		if next, ok := w.NextEventAt(); ok {
			Assertf(next >= now, "wheel: BeginCycle(%d) would skip over the event scheduled at %d", now, next)
		}
	}
	w.now = now
	idx := now & w.mask
	b := w.buckets[idx]
	if b != nil {
		w.buckets[idx] = nil
		w.occ[idx>>6] &^= 1 << (uint(idx) & 63)
		w.pending -= len(b)
	}
	in := b
	merged := len(w.far) > 0 && w.far[0].at <= now
	if merged {
		// Far events for this cycle were scheduled a full horizon ahead,
		// before any of the bucket's entries, so they precede them in Seq.
		m := w.merge[:0]
		for len(w.far) > 0 && w.far[0].at <= now {
			m = append(m, w.far.pop().e)
		}
		w.pending -= len(m)
		in = append(m, b...)
		w.merge = in
	}
	if Debug {
		for i := 1; i < len(in); i++ {
			Assertf(in[i-1].Seq < in[i].Seq, "wheel: cycle %d harvest out of Seq order (%d before %d)", now, in[i-1].Seq, in[i].Seq)
		}
	}
	if len(in) == 0 {
		w.run = w.run[:0]
		return w.run
	}
	w.orderRun(in)
	if merged {
		clear(in)
	}
	if b != nil {
		clear(b)
		w.free = append(w.free, b[:0])
	}
	return w.run
}

// insertionMax is the run length up to which BeginCycle orders by plain
// insertion sort; longer runs are bucketed by owner first.
const insertionMax = 16

// orderRun sets w.run to src stably sorted by Key. Because src is in Seq
// order, the result is in (Key, Seq) order. Long runs are first scattered
// into owner groups by a counting pass over the run's own [min, max] owner
// range, and one insertion pass then orders each group by its full key.
// Owner groups hold a handful of events, so that pass is linear in
// practice. When the owner range is wide relative to the run, adjacent
// owners share a group so the histogram never outgrows the run.
func (w *Wheel) orderRun(src []Entry) {
	n := len(src)
	out := slices.Grow(w.run[:0], n)[:n]
	w.run = out
	if n <= insertionMax {
		copy(out, src)
		insertionSortByKey(out)
		return
	}
	lo := src[0].Key >> ActorSrcBits
	hi := lo
	for _, e := range src[1:] {
		o := e.Key >> ActorSrcBits
		lo = min(lo, o)
		hi = max(hi, o)
	}
	shift := uint(0)
	for (hi-lo)>>shift >= uint64(4*n) {
		shift++
	}
	// Counting sort on (owner-lo)>>shift; w.hist is all zero between calls.
	groups := int((hi-lo)>>shift) + 1
	if cap(w.hist) < groups {
		w.hist = make([]int32, groups)
	}
	h := w.hist[:groups]
	for _, e := range src {
		h[(e.Key>>ActorSrcBits-lo)>>shift]++
	}
	var sum int32
	for g, c := range h {
		h[g] = sum
		sum += c
	}
	for _, e := range src {
		g := (e.Key>>ActorSrcBits - lo) >> shift
		out[h[g]] = e
		h[g]++
	}
	clear(h)
	insertionSortByKey(out)
}

// insertionSortByKey stably sorts s by Key.
func insertionSortByKey(s []Entry) {
	for i := 1; i < len(s); i++ {
		if s[i-1].Key <= s[i].Key {
			continue
		}
		e := s[i]
		j := i
		for j > 0 && s[j-1].Key > e.Key {
			s[j] = s[j-1]
			j--
		}
		s[j] = e
	}
}

// SkipTo declares every cycle in (w.now, now] event-free and jumps the
// wheel's clock to now without touching the skipped buckets. The caller
// must have verified — via NextEventAt — that no event is scheduled at or
// before now; skipping past a scheduled event corrupts the wheel. No-op
// when now <= w.now.
func (w *Wheel) SkipTo(now Cycle) {
	if now > w.now {
		if Debug {
			if next, ok := w.NextEventAt(); ok {
				Assertf(next > now, "wheel: SkipTo(%d) would skip over the event scheduled at %d", now, next)
			}
		}
		w.now = now
	}
}

// NextEventAt returns the earliest cycle with a scheduled event and true,
// or false when the wheel is empty. It scans the occupancy bitmap (one bit
// per bucket, size/64 words) and peeks the far heap's top, so an idle
// simulator can find its next wake-up in a handful of word operations.
func (w *Wheel) NextEventAt() (Cycle, bool) {
	next, found := w.nextNear()
	if len(w.far) > 0 && (!found || w.far[0].at < next) {
		next, found = w.far[0].at, true
	}
	return next, found
}

// nextNear locates the earliest occupied bucket in circular order starting
// just after the current cycle. All bucketed events live in
// (w.now, w.now+horizon), so the first set bit along that arc is the
// nearest event.
func (w *Wheel) nextNear() (Cycle, bool) {
	start := int((w.now + 1) & w.mask)
	sw, sb := start>>6, uint(start&63)
	// Bits at or after start within the first word.
	if word := w.occ[sw] &^ (1<<sb - 1); word != 0 {
		return w.cycleFor(sw<<6 + bits.TrailingZeros64(word)), true
	}
	// Whole words along the arc.
	for j := 1; j < len(w.occ); j++ {
		wi := (sw + j) % len(w.occ)
		if word := w.occ[wi]; word != 0 {
			return w.cycleFor(wi<<6 + bits.TrailingZeros64(word)), true
		}
	}
	// Wrap-around: bits before start within the first word.
	if word := w.occ[sw] & (1<<sb - 1); word != 0 {
		return w.cycleFor(sw<<6 + bits.TrailingZeros64(word)), true
	}
	return 0, false
}

// cycleFor maps an occupied bucket index back to the absolute cycle it
// holds events for.
func (w *Wheel) cycleFor(idx int) Cycle {
	size := int(w.mask) + 1
	d := (idx - int((w.now+1)&w.mask) + size) % size
	return w.now + 1 + Cycle(d)
}

// Each calls f for every pending event with its absolute fire cycle, in
// no particular order. f must not schedule into the wheel.
func (w *Wheel) Each(f func(at Cycle, e Entry)) {
	for idx, b := range w.buckets {
		if b == nil {
			continue
		}
		at := w.cycleFor(idx)
		for _, e := range b {
			f(at, e)
		}
	}
	for _, fe := range w.far {
		f(fe.at, fe.e)
	}
}

// Pending returns the number of scheduled events not yet fired. A drained
// wheel with idle traffic sources means the simulation has quiesced.
func (w *Wheel) Pending() int { return w.pending }

// farEvent is an entry beyond the wheel's horizon, keyed by its absolute
// fire cycle.
type farEvent struct {
	at Cycle
	e  Entry
}

// farHeap is a binary min-heap on (at, Seq). Sequence numbers are unique,
// so the pop order is fully determined by the entries, not by the layout.
type farHeap []farEvent

func (h farHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].e.Seq < h[j].e.Seq
}

func (h *farHeap) push(fe farEvent) {
	*h = append(*h, fe)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *farHeap) pop() farEvent {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s[n] = farEvent{}
	s = s[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s.less(r, c) {
			c = r
		}
		if !s.less(c, i) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return top
}
