// Command perfbench is the simulator's benchmark. It runs one workload
// through the public path scenario.Load → Scenario.NewSystem →
// core.System Warmup/RunTo/ResultAt → scenario.Summarize, over and over
// for the requested time, checks every run's summary, and prints the
// metrics as a JSON object on its last line of output.
//
//	perfbench --workload hotspot_fig6 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of single-threaded
// (shards = 1) runs, their CPU times scaled by a reference kernel timed
// between every two pieces of work. With --trace 1 it alternates an
// untraced run and a traced, CPU-profiled run, and reports the per-layer
// metrics. README.md explains the workloads and
// metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// minRounds is the fewest operations of each kind a run makes, however
// short --seconds is, so every reported median has several samples behind
// it.
const minRounds = 3

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workloadName := flag.String("workload", "", "workload name: hotspot_fig6, lowload_ff or faults_ckpt")
	seed := flag.Uint64("seed", defaultSeed, "workload seed; only the default seed has a recorded digest")
	seconds := flag.Float64("seconds", 10, "how long to keep starting operations")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	flag.Parse()
	w, err := findWorkload(*workloadName)
	if err != nil || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
		flag.Usage()
		os.Exit(2)
	}
	out, err := bench(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(out.Metrics))
	for name := range out.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-32s %14.6g %s\n", name, out.Metrics[name].Value, out.Metrics[name].Unit)
	}
	js, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(js))
}

// ledger counts operations and checks each one's summary digest against
// the expected one: the recorded digest at the default seed, otherwise the
// first successful run's, so every later run must repeat it exactly.
type ledger struct {
	w                 *workload
	want              string
	attempted, failed int
}

var modeLabel = map[opMode]string{opPlain: "plain", opGated: "gated", opTraced: "traced"}

func (l *ledger) run(g generated, mode opMode) *result {
	l.attempted++
	r, err := operation(l.w, g, mode)
	if err == nil && l.want != "" && r.digest != l.want {
		err = fmt.Errorf("summary digest %s, want %s", r.digest, l.want)
	}
	if err != nil {
		l.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s %s: FAILED: %v\n", l.w.name, modeLabel[mode], err)
		return nil
	}
	if l.want == "" {
		l.want = r.digest
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s %s: setup %.3fs/%.3fs wall %.3fs cpu %.3fs ref %.3fms alloc %.3fMB digest %s\n",
		l.w.name, modeLabel[mode], r.setupS, r.setupCPUS, r.wallS, r.cpuS, median(r.refSlices)*1e3, float64(r.opAllocBytes)/1e6, r.digest)
	return r
}

// bench runs the workload for the given duration and renders its metrics.
func bench(w *workload, seed uint64, dur time.Duration, traced bool) (*output, error) {
	start := time.Now()
	k1, err := scenarioJSON(w, seed)
	if err != nil {
		return nil, err
	}
	l := &ledger{w: w}
	if k1.seed == defaultSeed {
		l.want = w.digest
	}
	metrics := map[string]metric{}
	if !traced {
		ref = newRefKernel()
		var rs []*result
		for round := 0; round < minRounds || time.Since(start) < dur; round++ {
			rs = appendOK(rs, l.run(k1, opGated))
		}
		endToEnd(metrics, w, rs)
	} else {
		var plain, tr []*result
		for round := 0; round < minRounds || time.Since(start) < dur; round++ {
			plain = appendOK(plain, l.run(k1, opPlain))
			tr = appendOK(tr, l.run(k1, opTraced))
		}
		if err := perLayer(metrics, plain, tr); err != nil {
			return nil, err
		}
	}
	return &output{
		Correct:   l.failed == 0,
		Attempted: l.attempted,
		Failed:    l.failed,
		Metrics:   metrics,
	}, nil
}

func appendOK(rs []*result, r *result) []*result {
	if r == nil {
		return rs
	}
	return append(rs, r)
}

// generated is a workload's scenario file and the network seed it
// resolves to.
type generated struct {
	js   []byte
	seed uint64
}

// scenarioJSON renders the workload's scenario as the JSON file a user
// would hand to optorun; operations parse it back with scenario.Load.
func scenarioJSON(w *workload, seed uint64) (generated, error) {
	sc, err := w.build(seed)
	if err != nil {
		return generated{}, err
	}
	cfg, err := sc.NetworkConfig()
	if err != nil {
		return generated{}, err
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(sc); err != nil {
		return generated{}, err
	}
	return generated{js: buf.Bytes(), seed: cfg.Seed}, nil
}

// endToEnd fills the gated metrics: medians over the operations of an
// untraced run, plus the process's peak resident set. The times are CPU
// seconds scaled to the reference speed (refScale), which takes out most
// of the host's drift; unscaled CPU and wall times are reported per layer.
func endToEnd(m map[string]metric, w *workload, rs []*result) {
	cpu := func(r *result) float64 { return r.cpuS * refScale(r.refSlices, w.hostElasticity) }
	m["ref_cpu_s"] = metric{medianOf(rs, cpu), "s"}
	m["setup_s"] = metric{medianOf(rs, func(r *result) float64 { return r.setupCPUS * refScale(r.refSlices, w.hostElasticity) }), "s"}
	m["sim_cycles_per_ref_cpu_s"] = metric{medianOf(rs, func(r *result) float64 { return float64(r.measuredCycles) / cpu(r) }), "1/s"}
	m["alloc_mb"] = metric{medianOf(rs, func(r *result) float64 { return float64(r.opAllocBytes) / 1e6 }), "MB"}
	m["max_rss_mb"] = metric{maxRSSMB(), "MB"}
}

func medianOf(rs []*result, f func(*result) float64) float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = f(r)
	}
	return median(v)
}

// perLayer fills the traced metrics from two interleaved series of
// operations: untraced and traced, both at shards=1.
func perLayer(m map[string]metric, plain, traced []*result) error {
	if len(plain) == 0 || len(traced) == 0 {
		return fmt.Errorf("no successful operation in some series; see the failures above")
	}
	wall := func(r *result) float64 { return r.wallS }
	m["cpu_s"] = metric{medianOf(plain, func(r *result) float64 { return r.cpuS }), "s"}
	m["setup_cpu_s"] = metric{medianOf(plain, func(r *result) float64 { return r.setupCPUS }), "s"}
	m["wall_s"] = metric{medianOf(plain, wall), "s"}
	m["setup_wall_s"] = metric{medianOf(plain, func(r *result) float64 { return r.setupS }), "s"}
	m["sim_cycles_per_s"] = metric{medianOf(plain, func(r *result) float64 { return float64(r.measuredCycles) / r.wallS }), "1/s"}
	m["trace.overhead_frac"] = metric{medianOf(traced, wall)/medianOf(plain, wall) - 1, "ratio"}

	spans := map[string][]float64{}
	var samples []stackSample
	for _, r := range traced {
		for name, v := range r.spans {
			spans[name] = append(spans[name], v...)
		}
		s, err := parseProfile(r.profile)
		if err != nil {
			return err
		}
		samples = append(samples, s...)
	}
	for _, s := range []struct{ name, unit string }{
		{"scenario.build_ms", "ms"}, {"core.warmup_s", "s"}, {"core.measure_s", "s"},
		{"scenario.summarize_ms", "ms"}, {"checkpoint.export_ms", "ms"}, {"checkpoint.encode_ms", "ms"},
		{"checkpoint.decode_ms", "ms"}, {"checkpoint.restore_ms", "ms"},
	} {
		m[s.name] = metric{median(spans[s.name]), s.unit}
	}

	last := traced[len(traced)-1]
	for name, v := range last.counts {
		m[name] = metric{v, countUnit(name)}
	}
	m["checkpoint.bytes"] = metric{float64(last.ckptBytes), "B"}
	m["network.ns_per_stepped_cycle"] = metric{median(spans["core.measure_s"]) * 1e9 / last.counts["network.stepped_cycles"], "ns"}
	// The collector's figures come from untraced operations: the profiler
	// allocates during a traced one.
	m["runtime.gc_cycles"] = metric{medianOf(plain, func(r *result) float64 { return float64(r.gcs) }), "count"}
	m["runtime.mallocs"] = metric{medianOf(plain, func(r *result) float64 { return float64(r.mallocs) }), "count"}
	m["runtime.measure_alloc_mb"] = metric{medianOf(plain, func(r *result) float64 { return float64(r.allocBytes) / 1e6 }), "MB"}
	m["runtime.gc_pause_ms"] = metric{medianOf(plain, func(r *result) float64 { return float64(r.gcPauseNs) / 1e6 }), "ms"}

	shares, total := attribute(samples)
	for name, v := range shares {
		m[name] = metric{v, "ratio"}
	}
	m["profile.samples"] = metric{float64(total), "count"}
	return nil
}

func countUnit(name string) string {
	switch name {
	case "network.ff_skip_ratio", "router.retransmit_ratio":
		return "ratio"
	}
	return "count"
}

// median of v, or 0 when v is empty (a span the workload never opens).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
