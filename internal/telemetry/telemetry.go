// Package telemetry is the simulator's observability subsystem: a registry
// of typed time-series probes (counters, gauges, streaming histograms)
// sampled by a timing-wheel event, plus a bounded flight recorder of recent
// discrete events (level transitions, relock failures, link down/up,
// watchdog escalations) that can be dumped as JSON when something goes
// wrong mid-run.
//
// Design constraints, in order:
//
//  1. Determinism. Sampling runs as a sim.Wheel event, so it fires at
//     exactly the same cycles whether or not the surrounding simulator
//     fast-forwards over idle gaps — the event is visible to
//     Wheel.NextEventAt, which bounds every skip. Probes only *read*
//     simulator state (the lazily-advanced link state machines advance to
//     the same observation points either way), so enabling telemetry
//     never changes a result, and an enabled run is bit-identical between
//     fast-forwarded and cycle-by-cycle execution.
//  2. Bounded memory. Every series lives in a fixed-capacity ring: when it
//     fills, it compacts in place (every other point is dropped and the
//     sampling stride doubles), so a series always spans the whole run at
//     the finest resolution its capacity allows.
//  3. Low overhead. Disabled telemetry wires nothing — no hooks, no wheel
//     events, no allocations; the simulator is byte-identical to a build
//     without this package. Enabled at the default sampling period, the
//     per-sample work is a few thousand field reads.
package telemetry

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Config parameterises the telemetry subsystem. The zero value disables it
// entirely.
type Config struct {
	// Enabled switches the subsystem on.
	Enabled bool
	// SampleEvery is the probe sampling period in cycles (default 1024).
	// Sampling is a wheel event, so it also bounds how far the simulator's
	// event-driven fast-forward may skip while telemetry is enabled.
	SampleEvery sim.Cycle
	// RingCap is the per-series point capacity (default 512). A full ring
	// compacts: every other point is dropped and the series' stride
	// doubles, preserving whole-run coverage at halved resolution.
	RingCap int
	// FlightCap bounds the flight recorder's event ring (default 512);
	// older events are evicted and counted as dropped.
	FlightCap int
	// FlightDumpPath, when non-empty, is the file the flight recorder dumps
	// to (as JSON) on the first watchdog escalation, drop-horizon kill, or
	// audit failure. Tests and examples can use SetDumpWriter instead.
	FlightDumpPath string
}

// WithDefaults returns c with zero knobs replaced by defaults.
func (c Config) WithDefaults() Config {
	if c.SampleEvery <= 0 {
		c.SampleEvery = 1024
	}
	if c.RingCap <= 0 {
		c.RingCap = 512
	}
	if c.FlightCap <= 0 {
		c.FlightCap = 512
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if !c.Enabled {
		return nil
	}
	c = c.WithDefaults()
	if c.RingCap < 2 {
		return fmt.Errorf("telemetry: RingCap must be at least 2, got %d", c.RingCap)
	}
	return nil
}

// GaugeFunc reads one instantaneous value at the given cycle.
type GaugeFunc func(now sim.Cycle) float64

// CounterFunc reads one monotonically non-decreasing cumulative value.
type CounterFunc func() int64

// SeriesKind distinguishes instrument types in exports.
type SeriesKind string

const (
	KindGauge   SeriesKind = "gauge"
	KindCounter SeriesKind = "counter"
)

// series is one registered instrument and its sample ring.
type series struct {
	name  string
	kind  SeriesKind
	gauge GaugeFunc
	count CounterFunc

	pts []stats.Point
	//optolint:derived fixed ring capacity assigned at registration; restore validates against it
	cap    int
	stride int   // record every stride-th sample tick
	tick   int64 // sample ticks seen since registration
}

// sample records the instrument's current value if this tick lands on the
// series' stride grid, compacting the ring when it fills.
func (s *series) sample(now sim.Cycle) {
	t := s.tick
	s.tick++
	if t%int64(s.stride) != 0 {
		return
	}
	var v float64
	if s.kind == KindCounter {
		v = float64(s.count())
	} else {
		v = s.gauge(now)
	}
	if len(s.pts) == s.cap {
		// Compact: keep even-indexed points (which sit on the doubled
		// stride grid) and halve the occupancy.
		keep := s.pts[:0]
		for i := 0; i < len(s.pts); i += 2 {
			keep = append(keep, s.pts[i])
		}
		s.pts = keep
		s.stride *= 2
		if t%int64(s.stride) != 0 {
			return // this tick fell off the coarsened grid
		}
	}
	s.pts = append(s.pts, stats.Point{T: now, V: v})
}

// Series is a read-only snapshot of one instrument's time series.
type Series struct {
	Name   string
	Kind   SeriesKind
	Stride int // sampling stride in ticks (1 = every SampleEvery cycles)
	Points stats.Series
}

// Registry owns every registered instrument, the flight recorder, and the
// sampling wheel event.
type Registry struct {
	cfg   Config
	wheel *sim.Wheel

	//optolint:derived registration list rebuilt by construction; restore resolves series via byName
	series []*series
	//optolint:derived name index built at registration; the export side iterates series instead
	byName map[string]*series
	hists  map[string]*stats.Histogram
	//optolint:derived histogram registration order rebuilt by construction; restore resolves via hists
	horder []string

	flight *FlightRecorder

	samplerArmed bool
	sampleEvt    sim.Event // the HTelemSample handler

	// markers retains every ScheduleMarker wrapper in registration order;
	// the ordinal is the obj field of the marker's handler descriptor, so
	// wheel entries (live or restored) resolve back to their closures.
	// Registration order is deterministic (markers are scheduled during
	// network construction from the fault schedule).
	markers []sim.Event
	// pending counts registry-owned wheel events (the sampler plus any
	// scheduled flight-recorder markers) not yet fired. The network's
	// quiescence check subtracts it: telemetry only observes, so its
	// events must not keep a drained network "busy".
	pending int

	samples int64

	//optolint:derived host-process dump sink, not simulated state
	dumpW      io.Writer
	dumped     bool
	dumps      int
	suppressed int64
}

// NewRegistry builds a registry sampling on wheel w. Call Start to arm the
// sampler.
func NewRegistry(cfg Config, w *sim.Wheel) *Registry {
	cfg = cfg.WithDefaults()
	r := &Registry{
		cfg:    cfg,
		wheel:  w,
		byName: make(map[string]*series),
		hists:  make(map[string]*stats.Histogram),
		flight: NewFlightRecorder(cfg.FlightCap),
	}
	r.sampleEvt = func(now sim.Cycle) {
		r.samplerArmed = false
		r.pending--
		r.sampleAll(now)
		r.arm(now)
	}
	return r
}

// Config returns the registry's (defaulted) configuration.
func (r *Registry) Config() Config { return r.cfg }

// Gauge registers a gauge instrument. Names must be unique.
func (r *Registry) Gauge(name string, fn GaugeFunc) {
	r.add(&series{name: name, kind: KindGauge, gauge: fn})
}

// Counter registers a cumulative counter instrument.
func (r *Registry) Counter(name string, fn CounterFunc) {
	r.add(&series{name: name, kind: KindCounter, count: fn})
}

func (r *Registry) add(s *series) {
	if _, dup := r.byName[s.name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate series %q", s.name))
	}
	s.cap = r.cfg.RingCap
	s.stride = 1
	r.byName[s.name] = s
	r.series = append(r.series, s)
}

// Histogram registers (or returns the existing) streaming histogram under
// name. Callers record observations directly; exports snapshot quantiles.
func (r *Registry) Histogram(name string) *stats.Histogram {
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &stats.Histogram{}
	r.hists[name] = h
	r.horder = append(r.horder, name)
	return h
}

// Start takes a baseline sample at now and arms the recurring sampler.
func (r *Registry) Start(now sim.Cycle) {
	r.sampleAll(now)
	r.arm(now)
}

func (r *Registry) arm(now sim.Cycle) {
	if r.samplerArmed {
		return
	}
	r.samplerArmed = true
	r.pending++
	r.wheel.Schedule(now+r.cfg.SampleEvery, 0, sim.HandlerID(sim.HTelemSample, 0, 0))
}

func (r *Registry) sampleAll(now sim.Cycle) {
	r.samples++
	for _, s := range r.series {
		s.sample(now)
	}
}

// Samples returns how many sampling rounds have run (including the Start
// baseline).
func (r *Registry) Samples() int64 { return r.samples }

// PendingEvents returns the number of registry-owned wheel events currently
// scheduled. Quiescence checks subtract this from the wheel's pending
// count: telemetry never mutates simulator state, so its events must not
// count as outstanding work.
func (r *Registry) PendingEvents() int { return r.pending }

// ScheduleMarker schedules fn on the wheel with the registry's pending
// accounting — used for flight-recorder markers at known future times
// (e.g. scheduled fault windows).
func (r *Registry) ScheduleMarker(at sim.Cycle, fn sim.Event) {
	r.pending++
	wrap := func(now sim.Cycle) {
		r.pending--
		fn(now)
	}
	ordinal := uint32(len(r.markers))
	r.markers = append(r.markers, wrap)
	r.wheel.Schedule(at, 0, sim.HandlerID(sim.HTelemMarker, ordinal, 0))
}

// ResolveHandler maps a handler descriptor owned by the registry (sampler
// tick, scheduled marker) back to its event closure. Marker
// ordinals refer to registration order, which is deterministic per
// configuration.
func (r *Registry) ResolveHandler(id uint64) (sim.Event, bool) {
	switch sim.HandlerKind(id) {
	case sim.HTelemSample:
		return r.sampleEvt, true
	case sim.HTelemMarker:
		if ord := int(sim.HandlerObj(id)); ord < len(r.markers) {
			return r.markers[ord], true
		}
	}
	return nil, false
}

// Record appends a discrete event to the flight recorder.
func (r *Registry) Record(e Event) { r.flight.Record(e) }

// Flight returns the flight recorder.
func (r *Registry) Flight() *FlightRecorder { return r.flight }

// Series returns snapshots of every registered series, in registration
// order.
func (r *Registry) Series() []Series {
	out := make([]Series, 0, len(r.series))
	for _, s := range r.series {
		pts := make(stats.Series, len(s.pts))
		copy(pts, s.pts)
		out = append(out, Series{Name: s.name, Kind: s.kind, Stride: s.stride, Points: pts})
	}
	return out
}

// Lookup returns the snapshot of one series by name (ok=false when absent).
func (r *Registry) Lookup(name string) (Series, bool) {
	s, ok := r.byName[name]
	if !ok {
		return Series{}, false
	}
	pts := make(stats.Series, len(s.pts))
	copy(pts, s.pts)
	return Series{Name: s.name, Kind: s.kind, Stride: s.stride, Points: pts}, true
}

// SetDumpWriter redirects automatic flight-recorder dumps to w instead of
// Config.FlightDumpPath — for tests and examples.
func (r *Registry) SetDumpWriter(w io.Writer) { r.dumpW = w }

// openDump resolves the automatic dump destination: the explicit writer if
// set, else the configured path (nil when neither is available).
func (r *Registry) openDump() (io.Writer, func(), bool) {
	if r.dumpW != nil {
		return r.dumpW, func() {}, true
	}
	if r.cfg.FlightDumpPath == "" {
		return nil, nil, false
	}
	f, err := createFile(r.cfg.FlightDumpPath)
	if err != nil {
		return nil, nil, false
	}
	return f, func() { f.Close() }, true
}

// TriggerDump dumps the flight recorder once per run: the first watchdog
// escalation, drop-horizon kill, or audit failure produces the post-mortem;
// later triggers are counted but suppressed (the first is the one closest
// to the root cause, and a wedged network can escalate every scan).
func (r *Registry) TriggerDump(at sim.Cycle, reason string) {
	if r.dumped {
		r.suppressed++
		return
	}
	r.dumped = true
	w, done, ok := r.openDump()
	if !ok {
		return
	}
	defer done()
	if err := r.DumpFlight(w, at, reason); err == nil {
		r.dumps++
	}
}

// Dumps returns how many automatic dumps were written, and how many
// triggers were suppressed after the first.
func (r *Registry) Dumps() (written int, suppressed int64) {
	return r.dumps, r.suppressed
}

// Digest is the compact machine-readable summary of a telemetry-enabled
// run, embedded in report.Summary.
type Digest struct {
	// Samples is the number of sampling rounds taken.
	Samples int64 `json:"samples"`
	// SeriesCount is the number of registered time series.
	SeriesCount int `json:"series"`
	// SampleEvery is the sampling period in cycles.
	SampleEvery int64 `json:"sample_every"`
	// Events is the number of flight-recorder events retained.
	Events int `json:"events"`
	// DroppedEvents counts flight-recorder evictions.
	DroppedEvents int64 `json:"dropped_events"`
	// Dumps counts automatic flight-recorder dumps written.
	Dumps int `json:"dumps"`
	// LatencyP50/P95/P99 are quantiles of the "packet_latency" histogram
	// in cycles (zero when the histogram is absent or empty).
	LatencyP50 float64 `json:"latency_p50,omitempty"`
	LatencyP95 float64 `json:"latency_p95,omitempty"`
	LatencyP99 float64 `json:"latency_p99,omitempty"`
}

// Digest summarises the registry.
func (r *Registry) Digest() Digest {
	d := Digest{
		Samples:       r.samples,
		SeriesCount:   len(r.series),
		SampleEvery:   int64(r.cfg.SampleEvery),
		Events:        r.flight.Len(),
		DroppedEvents: r.flight.Dropped(),
		Dumps:         r.dumps,
	}
	if h, ok := r.hists["packet_latency"]; ok && h.Count() > 0 {
		d.LatencyP50 = h.Quantile(0.50)
		d.LatencyP95 = h.Quantile(0.95)
		d.LatencyP99 = h.Quantile(0.99)
	}
	return d
}

// Histograms returns the registered histogram names in registration order.
func (r *Registry) Histograms() []string {
	out := make([]string, len(r.horder))
	copy(out, r.horder)
	return out
}

// sortEventsByTime orders events chronologically (stable, so same-cycle
// events keep their recording order). The flight recorder's lazy sources
// (link state machines) can report a transition a little after the cycle it
// logically happened, so the raw ring is only approximately ordered.
func sortEventsByTime(ev []Event) {
	sort.SliceStable(ev, func(i, j int) bool { return ev[i].At < ev[j].At })
}
