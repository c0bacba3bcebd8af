package core

import (
	"fmt"
	"io"
	"sort"

	"ssmobile/internal/obs"
)

// Runner produces the table(s) of one experiment under an execution
// environment (observer + scheduler; see engine.go).
type Runner func(*Env) ([]*Table, error)

func one(f func(*Env) (*Table, error)) Runner {
	return func(env *Env) ([]*Table, error) {
		t, err := f(env)
		if err != nil {
			return nil, err
		}
		return []*Table{t}, nil
	}
}

// Registry maps experiment ids (e1..e12) to runners, with all stochastic
// experiments tied to the given seed for reproducibility. Experiments
// with several independent tables build them as one ForEach batch, so a
// parallel environment overlaps them.
func Registry(seed int64) map[string]Runner {
	return map[string]Runner{
		"e1": func(env *Env) ([]*Table, error) {
			return tableSet(env,
				E1DeviceComparison,
				func(je *Env) (*Table, error) { return E1BatteryLife() },
				E1FullStack,
			)
		},
		"e2": one(func(*Env) (*Table, error) { return E2CostCrossover() }),
		"e3": func(env *Env) ([]*Table, error) {
			return tableSet(env,
				func(je *Env) (*Table, error) { return E3WriteBuffering(je, seed) },
				func(je *Env) (*Table, error) { return E3FlushPolicyAblation(je, seed) },
				func(je *Env) (*Table, error) { return E3BlockSizeAblation(je, seed) },
			)
		},
		"e4": one(E4ReadInPlace),
		"e5": one(E5XIP),
		"e6": func(env *Env) ([]*Table, error) {
			return tableSet(env,
				func(je *Env) (*Table, error) { return E6WearLeveling(je, seed) },
				func(je *Env) (*Table, error) { return E6Lifetime(je, seed) },
				func(je *Env) (*Table, error) { return E6Static(je, seed) },
			)
		},
		"e7": func(env *Env) ([]*Table, error) {
			return tableSet(env,
				func(je *Env) (*Table, error) { return E7Banking(je, seed) },
				func(je *Env) (*Table, error) { return E7Segregation(je, seed) },
			)
		},
		"e8": one(func(env *Env) (*Table, error) { return E8Sizing(env, seed) }),
		"e9": func(env *Env) ([]*Table, error) {
			return tableSet(env,
				func(je *Env) (*Table, error) { return E9EndToEnd(je, seed) },
				func(je *Env) (*Table, error) { return E9FlashParts(je, seed) },
			)
		},
		"e10":  func(env *Env) ([]*Table, error) { return E10CrashAndBattery(env, seed) },
		"e11":  one(E11PowerCuts),
		"e12":  one(func(env *Env) (*Table, error) { return E12Saturation(env, seed) }),
		"e12b": one(func(env *Env) (*Table, error) { return E12bAttribution(env, seed) }),
		"e13":  one(func(env *Env) (*Table, error) { return E13WearAging(env, seed) }),
		"e14":  one(func(env *Env) (*Table, error) { return E14Cluster(env, seed) }),
		"e15":  one(func(env *Env) (*Table, error) { return E15EngineHeadToHead(env, seed) }),
		"e16":  func(env *Env) ([]*Table, error) { return E16Fleet(env, seed) },
	}
}

// Descriptions maps each experiment id to a one-line summary, for the
// CLI's list subcommand.
func Descriptions() map[string]string {
	return map[string]string{
		"e1":   "device comparison (§2): DRAM/flash/disk latency, cost, power, plus battery life and full-stack context",
		"e2":   "technology trends (§2): cost and density crossovers, 40MB flash vs disk by ~1996",
		"e3":   "write buffering (§3.3): battery-backed DRAM buffer absorbing 40-50% of write traffic",
		"e4":   "read in place (§3.3): serving reads from flash without copying into DRAM",
		"e5":   "execute in place (§3.2): XIP from the code card vs demand paging from disk",
		"e6":   "wear leveling (§3.3): cleaning policies, device lifetime, static leveling",
		"e7":   "banking and segregation (§3.3): parallel banks hiding erase latency, hot/cold separation",
		"e8":   "sizing (§3.3): DRAM buffer size against write-traffic reduction",
		"e9":   "end to end (§4): file workloads on the full solid-state vs disk organisations",
		"e10":  "crash recovery and battery (§3.1): recovery box after crashes and power failures",
		"e11":  "recovery under power cuts (§3.1, §4): crash-point enumeration at every device op, with torn programs and interrupted erases",
		"e12":  "serving-stack saturation (§3.3, §4): open-loop clients vs cleaning bandwidth through the object-storage service, with latency percentiles and load shedding",
		"e12b": "latency attribution at the knee (§3.3): request-scoped causal tracing decomposes the p99 into queue/buffer/flush/flash/clean stages and names the dominant stall",
		"e13":  "wear attribution over a lifetime (§3.3): years of bursty traffic age one card; write amplification decomposed by cause, wear spread, and the SMART-style health report's burn-rate lifetime",
		"e14":  "cluster scale-out (§4): the saturation workload sharded across N server nodes by consistent hash, with replicated writes, node-local shed retry, and health-driven rebalancing off an aging card",
		"e15":  "storage-engine head-to-head (§3.3): page-mapped FTL vs page-differential logging on an overwrite-heavy serving mix — throughput, tail latency, write amplification and erase load per backend",
		"e16":  "fleet observability (§4): a cluster driven through cordon, kill and restart — the event journal's virtual-time timeline, per-holder replica latency decomposition, and the fleet health rollup aggregating per-card SMART reports",
	}
}

// ExperimentIDs lists the registry keys in order.
func ExperimentIDs() []string {
	ids := make([]string, 0, 10)
	for id := range Registry(0) {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if len(ids[i]) != len(ids[j]) {
			return len(ids[i]) < len(ids[j])
		}
		return ids[i] < ids[j]
	})
	return ids
}

// RunExperiment runs one experiment by id sequentially and prints its
// tables.
func RunExperiment(w io.Writer, id string, seed int64) error {
	return RunExperimentParallel(w, id, seed, 1)
}

// RunExperimentParallel runs one experiment by id with up to par
// concurrent sweep configurations and prints its tables. Output and
// telemetry are identical to the sequential run for any par.
func RunExperimentParallel(w io.Writer, id string, seed int64, par int) error {
	r, ok := Registry(seed)[id]
	if !ok {
		return fmt.Errorf("core: unknown experiment %q (have %v)", id, ExperimentIDs())
	}
	tables, err := r(NewEnv(nil, par))
	if err != nil {
		return fmt.Errorf("experiment %s: %w", id, err)
	}
	for _, t := range tables {
		t.Fprint(w)
	}
	return nil
}

// RunAll runs every experiment in order, sequentially.
func RunAll(w io.Writer, seed int64) error {
	return RunAllParallel(w, seed, 1)
}

// RunAllParallel runs every experiment with up to par concurrent jobs
// (par <= 1 is the plain sequential run). Tables are buffered per
// experiment and printed in experiment-id order, and per-job telemetry
// is merged in that same order, so stdout, the metrics dump, and the
// trace are byte-identical to the sequential run for any par. On error,
// every experiment before the first failing id is still printed (and its
// telemetry merged), matching what a sequential run would have emitted
// before stopping.
func RunAllParallel(w io.Writer, seed int64, par int) error {
	return RunAllParallelWithObserver(w, seed, par, nil)
}

// RunAllParallelWithObserver is RunAllParallel against an explicit
// observer (nil falls back to obs.Default()). The determinism tests use
// it to assert that stdout is byte-identical whether the observer traces
// or not — telemetry must never feed back into results.
func RunAllParallelWithObserver(w io.Writer, seed int64, par int, o *obs.Observer) error {
	results, err := runAll(seed, par, o)
	for _, tables := range results {
		if tables == nil {
			break // first failing (or never-run) experiment
		}
		for _, t := range tables {
			t.Fprint(w)
		}
	}
	return err
}

// runAll runs every experiment and returns each one's tables in
// experiment-id order; a failing or never-run experiment leaves nil.
func runAll(seed int64, par int, o *obs.Observer) ([][]*Table, error) {
	ids := ExperimentIDs()
	reg := Registry(seed)
	root := &Env{obs: obs.Or(o), sched: newSched(par)}
	results := make([][]*Table, len(ids))
	err := root.ForEach(len(ids), func(i int, je *Env) error {
		tables, err := reg[ids[i]](je)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", ids[i], err)
		}
		results[i] = tables
		return nil
	})
	return results, err
}
