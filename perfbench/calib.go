package main

import (
	"fmt"
	"math"
)

// The reference kernel is a fixed piece of work that imports nothing from
// the simulator and allocates nothing once built, so no change to the
// simulator or to its heap changes the kernel's cost. A gated operation
// runs a slice of it between every two pieces of its own work (see meter).
// The median slice time of the operation says how fast the host ran while
// it did, and the operation's CPU times are scaled by it (refScale). The
// median rather than the slices next to each piece, because a slice now
// and then runs long when something interrupts it.
//
// The host this benchmark was built on is a shared VM whose speed moves in
// spells of seconds to minutes, by up to 1.9× for the simulator, most
// likely from a neighbour sharing the physical core's branch predictors
// and L1/L2 caches. Timed beside the simulator, kernels of different kinds
// tracked those spells unequally: interface calls with unpredictable
// targets and pointer chasing inside L2 followed them best, while ALU
// loops, L1, L3 and DRAM chasing and sorting moved far less than the
// simulator did. The kernel is those two, in the proportion that best
// matched three workloads' operation times. Across the drift, operation
// time went as a power of slice time: near 1 for the two workloads that
// span 100–200 MB, and 1.2–1.6 for lowload_ff, whose 11 MB process sits
// largely in L2. Each workload carries its exponent (hostElasticity).

// refNominalS is the CPU time of one reference slice that the scaling maps
// onto, about what a slice takes on an unloaded host. A scaled time reads
// as the CPU seconds the work would take on a host that runs one slice in
// exactly this long.
const refNominalS = 0.0018

const (
	refCalls  = 100_000 // interface calls per slice
	refTable  = 4096    // interface values the calls pick from, a power of two
	refChase  = 30_000  // pointer-chase steps per slice
	ringNodes = 4096    // 64-byte nodes: 256 KiB, inside L2
)

type ringNode struct {
	next int32
	_    [15]int32
}

type shape interface{ area() uint64 }

type square struct{ a uint64 }
type circle struct{ a uint64 }
type triangle struct{ a uint64 }

func (s square) area() uint64   { return s.a * s.a }
func (c circle) area() uint64   { return c.a*3 + 1 }
func (t triangle) area() uint64 { return t.a / 2 }

// refKernel holds the kernel's tables, built once. The ring is one random
// cycle through all its nodes.
type refKernel struct {
	shapes []shape
	ring   []ringNode
	want   uint64 // a slice's checksum, recorded when built
}

func xorshift(s *uint64) uint64 {
	*s ^= *s << 13
	*s ^= *s >> 7
	*s ^= *s << 17
	return *s
}

func newRefKernel() *refKernel {
	k := &refKernel{shapes: make([]shape, refTable), ring: make([]ringNode, ringNodes)}
	rng := uint64(0x9e3779b97f4a7c15)
	for i := range k.shapes {
		switch xorshift(&rng) % 3 {
		case 0:
			k.shapes[i] = square{uint64(i)}
		case 1:
			k.shapes[i] = circle{uint64(i)}
		default:
			k.shapes[i] = triangle{uint64(i)}
		}
	}
	// Sattolo's shuffle of the identity makes one cycle.
	for i := range k.ring {
		k.ring[i].next = int32(i)
	}
	for i := len(k.ring) - 1; i > 0; i-- {
		j := int(xorshift(&rng) % uint64(i))
		k.ring[i].next, k.ring[j].next = k.ring[j].next, k.ring[i].next
	}
	k.want = k.slice()
	return k
}

// warm touches every table entry the slice uses.
func (k *refKernel) warm() {
	var sum uint64
	for _, s := range k.shapes {
		sum += s.area()
	}
	for i := range k.ring {
		sum += uint64(k.ring[i].next)
	}
	refSink = sum
}

// refSink keeps warm's loads from being optimized away.
var refSink uint64

// slice runs the kernel once and returns its checksum, which is the same
// on every call.
func (k *refKernel) slice() uint64 {
	var sum uint64
	rng := uint64(0x2545f4914f6cdd1d)
	for i := 0; i < refCalls; i++ {
		sum += k.shapes[xorshift(&rng)&(refTable-1)].area()
	}
	p := int32(0)
	for i := 0; i < refChase; i++ {
		p = k.ring[p].next
		sum += uint64(p)
	}
	return sum
}

// ref is the reference kernel of a gated run, built before its first
// operation.
var ref *refKernel

// refSlice runs one reference slice and returns its CPU seconds. An
// untimed pass over the kernel's tables first brings them back into cache,
// so the time does not depend on how much of the cache the simulator's
// work before it evicted.
func refSlice() (float64, error) {
	ref.warm()
	c0 := cpuSeconds()
	got := ref.slice()
	d := cpuSeconds() - c0
	if got != ref.want {
		return 0, fmt.Errorf("reference kernel checksum %x, want %x", got, ref.want)
	}
	return d, nil
}

// refScale is the factor that maps CPU time measured while reference
// slices took the given times onto the reference speed, for a workload
// whose time moves as (slice time)^elasticity with the host's drift.
func refScale(slices []float64, elasticity float64) float64 {
	return math.Pow(refNominalS/median(slices), elasticity)
}

// meter times an operation's work in pieces and, with reference slices
// on, runs one before the first piece and one after every piece. raw adds
// up the pieces' CPU time without the slices.
type meter struct {
	withRef bool
	cpu0    float64 // CPU time at the start of the current piece
	raw     float64
	refs    []float64
}

func newMeter(withRef bool) (*meter, error) {
	m := &meter{withRef: withRef}
	if err := m.reference(); err != nil {
		return nil, err
	}
	m.cpu0 = cpuSeconds()
	return m, nil
}

func (m *meter) reference() error {
	if !m.withRef {
		return nil
	}
	r, err := refSlice()
	if err != nil {
		return err
	}
	m.refs = append(m.refs, r)
	return nil
}

// lap ends the current piece of work and starts the next.
func (m *meter) lap() error {
	m.raw += cpuSeconds() - m.cpu0
	if err := m.reference(); err != nil {
		return err
	}
	m.cpu0 = cpuSeconds()
	return nil
}
