package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// measureChunks and warmupChunks are how many RunTo pieces an operation
// cuts its measured window and its warm-up into. A gated operation runs a
// reference slice at every boundary; a traced one samples the wheel's
// pending-event count at each boundary of the measured window.
const (
	measureChunks = 64
	warmupChunks  = 16
)

// ckptQuarters is the checkpoint cadence of a checkpointing workload: one
// every measure/ckptQuarters cycles, a supervisor's auto-checkpoint rhythm
// scaled to the window.
const ckptQuarters = 4

// opMode is how an operation is measured.
type opMode int

const (
	// opPlain only times the operation.
	opPlain opMode = iota
	// opGated interleaves reference slices with the operation's work and
	// scales its CPU times by them.
	opGated
	// opTraced records spans, a CPU profile and the layer counters.
	opTraced
)

// result is one operation: a full scenario run from Load to a checked
// summary.
type result struct {
	setupS, setupCPUS float64
	wallS, cpuS       float64
	// refSlices are the CPU seconds of the reference slices run during a
	// gated operation, set-up and measured window together.
	refSlices      []float64
	measuredCycles int64
	// opAllocBytes covers the whole operation, set-up included;
	// allocBytes only the measured window.
	opAllocBytes, allocBytes uint64
	mallocs, gcs             uint64
	gcPauseNs                uint64
	digest                   string
	spans                    map[string][]float64
	counts                   map[string]float64
	ckptBytes                int
	profile                  []byte
}

// operation runs workload w's scenario file g once, with GOMAXPROCS set to
// 1 so the single-threaded run also keeps the garbage collector on one
// CPU. Set-up is Load, NewSystem and a warm-up cut
// into warmupChunks RunTo pieces before System.Warmup; the measured window
// is measureChunks RunTo pieces and ResultAt, and ends once the summary is
// hashed and, on a checkpointing workload, the resumed copy has matched it.
// A gated operation runs a reference slice at every piece boundary (see
// meter). A traced one records spans around each public call, CPU-profiles
// the measured window and reads the layer counters afterwards. A returned
// error counts the operation as failed.
func operation(w *workload, g generated, mode opMode) (*result, error) {
	traced, withRef := mode == opTraced, mode == opGated
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := &result{spans: map[string][]float64{}}
	span := func(name string, scale float64, start time.Time) {
		if traced {
			r.spans[name] = append(r.spans[name], time.Since(start).Seconds()*scale)
		}
	}

	runtime.GC()
	var msOp, ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&msOp)
	t0 := time.Now()
	setup, err := newMeter(withRef)
	if err != nil {
		return nil, err
	}
	sc, err := scenario.Load(bytes.NewReader(g.js))
	if err != nil {
		return nil, err
	}
	sys, warmup, measure, err := sc.NewSystem()
	if err != nil {
		return nil, err
	}
	defer sys.Net.Close()
	span("scenario.build_ms", 1e3, t0)
	tw := time.Now()
	if err := setup.lap(); err != nil {
		return nil, err
	}
	for i := sim.Cycle(1); i < warmupChunks; i++ {
		sys.RunTo(warmup * i / warmupChunks)
		if err := setup.lap(); err != nil {
			return nil, err
		}
	}
	sys.Warmup(warmup)
	if err := setup.lap(); err != nil {
		return nil, err
	}
	span("core.warmup_s", 1, tw)
	r.setupS = time.Since(t0).Seconds()
	r.setupCPUS = setup.raw

	runtime.ReadMemStats(&ms0)
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile() // error paths; a second stop is a no-op
	}
	t1 := time.Now()
	run, err := newMeter(withRef)
	if err != nil {
		return nil, err
	}
	end := warmup + measure
	_, skipped0 := sys.Net.FastForwardStats()

	var mid []byte
	var pending []float64
	var measureS float64
	every := measure / ckptQuarters
	for i := sim.Cycle(1); i <= measureChunks; i++ {
		next := warmup + measure*i/measureChunks
		tr := time.Now()
		sys.RunTo(next)
		measureS += time.Since(tr).Seconds()
		if traced {
			pending = append(pending, float64(sys.Net.Wheel().Pending()))
		}
		if w.checkpoints && next < end && (next-warmup)%every == 0 {
			b, err := writeCheckpoint(sys, span)
			if err != nil {
				return nil, err
			}
			r.ckptBytes = len(b)
			if next-warmup == measure/2 {
				mid = b
			}
		}
		if err := run.lap(); err != nil {
			return nil, err
		}
	}
	ts := time.Now()
	res := sys.ResultAt(end)
	js1, err := scenario.Summarize(w.name, sys, res).JSON()
	if err != nil {
		return nil, err
	}
	span("scenario.summarize_ms", 1e3, ts)
	h := sha256.Sum256(js1)
	r.digest = hex.EncodeToString(h[:])
	if w.checkpoints {
		if err := resume(w, g.js, mid, end, js1, span); err != nil {
			return nil, err
		}
	}
	if err := run.lap(); err != nil {
		return nil, err
	}
	r.wallS = time.Since(t1).Seconds()
	r.cpuS = run.raw
	r.refSlices = append(setup.refs, run.refs...)
	if traced {
		pprof.StopCPUProfile()
		r.profile = prof.Bytes()
	}
	runtime.ReadMemStats(&ms1)
	r.measuredCycles = int64(measure)
	r.opAllocBytes = ms1.TotalAlloc - msOp.TotalAlloc
	r.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	r.mallocs = ms1.Mallocs - ms0.Mallocs
	r.gcs = uint64(ms1.NumGC - ms0.NumGC)
	r.gcPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs

	if err := sys.Net.Audit(); err != nil {
		return nil, fmt.Errorf("audit after run: %w", err)
	}
	if traced {
		_, skipped1 := sys.Net.FastForwardStats()
		r.spans["core.measure_s"] = []float64{measureS}
		r.counts = layerCounts(sys, int64(measure), skipped1-skipped0, pending)
	}
	return r, nil
}

// writeCheckpoint exports the system and encodes it in memory, as the
// supervisor's auto-checkpoint does minus the file write.
func writeCheckpoint(sys *core.System, span func(string, float64, time.Time)) ([]byte, error) {
	te := time.Now()
	st, err := sys.ExportState()
	if err != nil {
		return nil, fmt.Errorf("export at cycle %d: %w", sys.Now(), err)
	}
	span("checkpoint.export_ms", 1e3, te)
	tc := time.Now()
	var buf bytes.Buffer
	if err := checkpoint.Encode(&buf, int64(sys.Now()), st); err != nil {
		return nil, err
	}
	span("checkpoint.encode_ms", 1e3, tc)
	return buf.Bytes(), nil
}

// resume restores the mid-run checkpoint into a freshly built system, runs
// it to the end of the window and requires its summary to equal want byte
// for byte.
func resume(w *workload, js, ckpt []byte, end sim.Cycle, want []byte, span func(string, float64, time.Time)) error {
	if ckpt == nil {
		return fmt.Errorf("no mid-run checkpoint was taken")
	}
	sc, err := scenario.Load(bytes.NewReader(js))
	if err != nil {
		return err
	}
	sys, _, _, err := sc.NewSystem()
	if err != nil {
		return err
	}
	defer sys.Net.Close()
	td := time.Now()
	var st core.State
	if _, err := checkpoint.Decode(ckpt, &st); err != nil {
		return err
	}
	span("checkpoint.decode_ms", 1e3, td)
	tr := time.Now()
	if err := sys.RestoreState(&st); err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	span("checkpoint.restore_ms", 1e3, tr)
	sys.RunTo(end)
	got, err := scenario.Summarize(w.name, sys, sys.ResultAt(end)).JSON()
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("resumed summary differs from the uninterrupted run")
	}
	return nil
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// maxRSSMB is the process's peak resident set in MiB (Linux reports KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
