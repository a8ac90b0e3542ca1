package main

import (
	"fmt"

	"repro/internal/experiments"
	"repro/internal/network"
	"repro/internal/scenario"
)

// defaultSeed is the seed the expected digests below were recorded with. A
// scenario seed of 0 resolves to the same network seed, so both are checked.
const defaultSeed = 1

// workload is one gated benchmark input: a scenario generator plus the
// run shape the benchmark drives it with.
type workload struct {
	name string
	// build returns the scenario for a seed. Everything the simulator sees
	// comes from this scenario.
	build func(seed uint64) (*scenario.Scenario, error)
	// checkpoints makes the run export and encode a checkpoint at every
	// quarter of the measured window and resume once, in a fresh system,
	// from the one at the half.
	checkpoints bool
	// hostElasticity is how much more this workload's CPU time moves than
	// the reference kernel's when the host's speed drifts: across the
	// drift, operation time went as (slice time)^hostElasticity. See
	// refScale.
	hostElasticity float64
	// digest is the SHA-256 of the summary's report.Summary.JSON rendering
	// at defaultSeed: the bytes `optorun -worker` writes for the same
	// scenario file, without its trailing newline.
	digest string
}

// Measured windows are multiples of measureChunks so the chunk
// boundaries and the checkpoint cadence line up.
var workloads = []workload{
	{
		// Section 4.2 / Fig 6(d): the time-varying hot-spot trace on the
		// default VCSEL power-aware system. Busy every cycle, so the event
		// wheel and switch allocation dominate and fast-forward is idle.
		name: "hotspot_fig6",
		build: func(seed uint64) (*scenario.Scenario, error) {
			const warmup, measure = 10_000, 32_000
			sc := baseScenario(seed, warmup, measure)
			sc.Workload.Type = "hotspot"
			for _, p := range experiments.HotspotSchedule(warmup + measure) {
				sc.Workload.Phases = append(sc.Workload.Phases, scenario.Phase{Until: int64(p.Until), Rate: p.NetworkRate})
			}
			sc.Workload.HotNode = network.DefaultConfig().NodeID(3, 5, 4)
			sc.Workload.HotWeight = 4
			return sc, nil
		},
		hostElasticity: 1,
		digest:         "a3392b62f0895c65b41c10158d906f736e7682942239491a57288d7ff6f3cb64",
	},
	{
		// Uniform traffic at near-zero load over a long horizon: most cycles
		// are skipped by fast-forward, and what remains is policy windows.
		name: "lowload_ff",
		build: func(seed uint64) (*scenario.Scenario, error) {
			sc := baseScenario(seed, 4_000_000, 19_200_000)
			sc.Workload.Rate = 0.002
			return sc, nil
		},
		// The whole process is about 11 MB, so much of its working set
		// lives in L2, and a neighbour's pressure on L2 slows it more than
		// it slows the kernel; the other two workloads span 100–200 MB.
		hostElasticity: 1.4,
		digest:         "8ccb5451932608a45efc26feadf836505a441f6c65921160ed0ef182ff70b687",
	},
	{
		// The sustained-BER regime the loss-aware rules policy targets, with
		// relock failures and one hard link outage under recovery: the
		// reliability, fault and recovery layers run only here.
		name:        "faults_ckpt",
		checkpoints: true,
		build: func(seed uint64) (*scenario.Scenario, error) {
			const warmup, measure = 2_000, 8_000
			sc := baseScenario(seed, warmup, measure)
			sc.System.VCs = 3 // recovery's escape VC plus two adaptive
			sc.Workload.Rate = 2.0
			link, err := centralEastLink(sc)
			if err != nil {
				return nil, err
			}
			sc.Fault = scenario.Fault{
				BERScale:        1e9,
				ExtraPathLossDB: 23,
				RelockFailProb:  0.1,
				LinkFailures:    []scenario.LinkFailure{{Link: link, At: warmup + measure/4, RepairAt: warmup + measure/2}},
				Recovery:        true,
			}
			sc.Policy = scenario.Policy{Kind: "rules", MaxBER: 1e-9}
			return sc, nil
		},
		hostElasticity: 1,
		digest:         "03801c9eeb1f245911042891b770e97d27003dbfbc1a49220c65831d01187adc",
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// baseScenario is the paper's default 8×8×8 power-aware VCSEL system under
// the DVS policy, single-threaded (shards = 1), with the given run window.
func baseScenario(seed uint64, warmup, measure int64) *scenario.Scenario {
	return &scenario.Scenario{
		System: scenario.System{Seed: seed, Shards: 1},
		Run:    scenario.Run{Warmup: warmup, Measure: measure},
	}
}

// centralEastLink resolves the link index of the central router's
// eastbound mesh link for sc's system, the hop the reroute experiment fails.
func centralEastLink(sc *scenario.Scenario) (int, error) {
	sys, _, _, err := sc.NewSystem()
	if err != nil {
		return 0, err
	}
	defer sys.Net.Close()
	cfg := sys.Config()
	link := sys.Net.MeshLinkIndex(cfg.RouterAt(cfg.MeshW/2, cfg.MeshH/2), network.DirE)
	if link < 0 {
		return 0, fmt.Errorf("central router has no east link")
	}
	return link, nil
}
