package sim

import "testing"

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		r.Uint64()
	}
}

func BenchmarkRNGFloat64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		r.Float64()
	}
}

// harvestKeys pre-draws n actor keys with owners in [lo, lo+span) and a
// handful of srcs per owner, so the timed loop spends nothing on the RNG.
func harvestKeys(n int, lo, span uint32) []uint64 {
	r := NewRNG(7)
	keys := make([]uint64, n)
	for i := range keys {
		owner := lo + uint32(r.Intn(int(span)))
		keys[i] = ActorKey(owner, owner+uint32(r.Intn(6)))
	}
	return keys
}

// benchHarvest schedules perCycle(i) keyed events a few cycles ahead and
// harvests one cycle per iteration — the wheel's whole per-cycle cost in
// the network's Step, minus running the events.
func benchHarvest(b *testing.B, keys []uint64, perCycle func(i int) int) {
	w := NewWheel(4096)
	k := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := Cycle(i)
		for j := perCycle(i); j > 0; j-- {
			w.Schedule(now+1+Cycle(k&3), keys[k], 1)
			k++
			if k == len(keys) {
				k = 0
			}
		}
		w.BeginCycle(now)
	}
}

// BenchmarkWheelHarvestDense is the Fig 6 hot-spot shape: ~300 events per
// cycle spread over ~600 actors.
func BenchmarkWheelHarvestDense(b *testing.B) {
	keys := harvestKeys(1<<16, 1, 600)
	benchHarvest(b, keys, func(int) int { return 300 })
}

// BenchmarkWheelHarvestSparse is the low-load shape: 1–3 events per cycle
// with owner ids near 600. A harvest whose cost scales with the actor
// range instead of the run length shows up here.
func BenchmarkWheelHarvestSparse(b *testing.B) {
	keys := harvestKeys(1<<12, 560, 48)
	benchHarvest(b, keys, func(i int) int { return 1 + i%3 })
}

// BenchmarkWheelHarvestIdle pins the cost of harvesting one event-free
// cycle — the operation fast-forward exists to avoid.
func BenchmarkWheelHarvestIdle(b *testing.B) {
	w := NewWheel(4096)
	// One far event beyond the horizon keeps the far-heap peek honest.
	w.Schedule(Cycle(b.N)+10_000, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.BeginCycle(Cycle(i))
	}
}

// BenchmarkWheelNextEventAt measures the bitmap scan on a sparse wheel.
func BenchmarkWheelNextEventAt(b *testing.B) {
	w := NewWheel(4096)
	w.Schedule(4000, 0, 1) // near the end of the scan
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := w.NextEventAt(); !ok {
			b.Fatal("event lost")
		}
	}
}

func BenchmarkWheelFarEvents(b *testing.B) {
	w := NewWheel(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now := Cycle(i)
		w.Schedule(now+10_000, 0, 1) // always beyond the horizon
		w.BeginCycle(now)
	}
}
