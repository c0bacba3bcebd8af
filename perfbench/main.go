// Command perfbench is the repository's benchmark. For one workload it
// builds the storage stack from the public constructors, drives a
// seeded, pre-generated operation stream through it, checks every
// output against a shadow model, and prints each metric by name with
// its unit. The last line of standard output is one JSON object.
//
//	perfbench --workload wear-ftl --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// alternates untraced rounds with traced ones (decorator spans, an
// attached observer, a CPU profile) and prints the per-layer metrics.
// See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// round is the outcome of one build-run-check cycle.
type round struct {
	setup, timed time.Duration
	ops          int64 // operations attempted in the timed run
	failed       int64 // shed, unavailable, transport error or mismatch
	mismatches   int64
	rt           runtimeCounts
	peakLive     uint64
	host         []int64 // host ns per operation, as the caller saw it
	// counts holds the virtual end-to-end metrics and the countMetrics;
	// all repeat exactly for a seed.
	counts map[string]float64

	// Traced rounds only.
	tm       *timers
	spans    []span
	vstageMs map[string]float64
}

// bench runs rounds of one workload. It generates its inputs once, before
// the first round, and every round replays them over a fresh stack.
type bench interface {
	round(traced bool, m *meter) (*round, error)
}

func newBench(name string, seed int64, scale float64) (bench, error) {
	switch name {
	case "wear-ftl":
		return newWear("ftl", seed, scale), nil
	case "wear-pdl":
		return newWear("pdl", seed, scale), nil
	case "serve":
		return newServe(seed, scale), nil
	case "cluster-tcp":
		return newClusterTCP(seed, scale), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want wear-ftl, wear-pdl, serve or cluster-tcp)", name)
}

// report is the benchmark's result line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "wear-ftl, wear-pdl, serve or cluster-tcp")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "host seconds of rounds to run")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	outdir := flag.String("outdir", ".bench_build/perfbench", "where the traced run writes spans and the CPU profile")
	flag.Parse()
	rep, lines, err := run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *outdir, 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !rep.Correct {
		os.Exit(1)
	}
}

// run executes rounds of the named workload until budget has passed
// and aggregates them. The untraced run's rounds are all untraced. The
// traced run alternates untraced and traced rounds, starting untraced,
// so host throughput and the tracing overhead are measured side by side
// under the same host conditions. scale multiplies the workload's
// operation count; tests run small scales in-process.
func run(name string, seed int64, budget time.Duration, traced bool, outdir string, scale float64) (*report, []string, error) {
	w, err := newBench(name, seed, scale)
	if err != nil {
		return nil, nil, err
	}
	plain, tm := newMeter(false), newMeter(true)
	var rounds, plainRounds, tracedRounds []*round
	start := time.Now()
	for len(rounds) < 1 || (traced && len(rounds) < 2) || time.Since(start) < budget {
		runtime.GC() // set-up starts from a collected heap
		tr := traced && len(rounds)%2 == 1
		m := plain
		if tr {
			m = tm
		}
		r, err := w.round(tr, m)
		if err != nil {
			return nil, nil, fmt.Errorf("%s round %d: %w", name, len(rounds), err)
		}
		rounds = append(rounds, r)
		if tr {
			tracedRounds = append(tracedRounds, r)
		} else {
			plainRounds = append(plainRounds, r)
		}
	}

	rep := &report{Correct: true, Metrics: map[string]metricValue{}}
	r0 := rounds[0]
	lines := []string{fmt.Sprintf("workload %s seed %d: %d rounds of %d ops, %d traced",
		name, seed, len(rounds), r0.ops, len(tracedRounds))}
	for i, r := range rounds {
		rep.Attempted += r.ops
		rep.Failed += r.failed
		if r.mismatches > 0 {
			rep.Correct = false
			lines = append(lines, fmt.Sprintf("round %d: %d output mismatches", i, r.mismatches))
		}
		for k, v := range r.counts {
			if v != r0.counts[k] {
				rep.Correct = false
				lines = append(lines, fmt.Sprintf("round %d: %s = %v, round 0 had %v", i, k, v, r0.counts[k]))
			}
		}
	}
	set := func(m metric, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		rep.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	median := func(rs []*round, f func(r *round) float64) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = f(r)
		}
		return medianF(xs)
	}
	opsPerSec := func(r *round) float64 { return float64(r.ops) / r.timed.Seconds() }
	host := map[string]float64{
		"ops_per_s":  median(plainRounds, opsPerSec),
		"rtt_p50_us": median(plainRounds, func(r *round) float64 { return quantile(sorted(r.host), 0.50) / 1e3 }),
		"rtt_p99_us": median(plainRounds, func(r *round) float64 { return quantile(sorted(r.host), 0.99) / 1e3 }),
	}
	lines = append(lines, fmt.Sprintf("host: %.0f op/s, round trip p50 %.2f us, p99 %.2f us over %d samples per round",
		host["ops_per_s"], host["rtt_p50_us"], host["rtt_p99_us"], len(r0.host)))
	for i, r := range rounds {
		lines = append(lines, fmt.Sprintf("round %d: setup %.4fs, %.0f op/s", i, r.setup.Seconds(), opsPerSec(r)))
	}

	if !traced {
		e2e := map[string]float64{
			"setup_s":       median(rounds, func(r *round) float64 { return r.setup.Seconds() }),
			"allocs_per_op": allocsPerOp(rounds),
			"peak_heap_mb":  median(rounds, func(r *round) float64 { return float64(r.peakLive) / (1 << 20) }),
		}
		for _, m := range endToEnd {
			v, ok := e2e[m.name]
			if !ok {
				v = r0.counts[m.name]
			}
			set(m, v)
		}
	} else {
		for _, m := range hostMetrics {
			set(m, host[m.name])
		}
		var all timers
		var spanTotal [numSpans][]float64
		var stackTotal, tcpTotal []float64
		for _, r := range tracedRounds {
			for i := range r.tm.d {
				all.d[i] = append(all.d[i], r.tm.d[i]...)
				spanTotal[i] = append(spanTotal[i], float64(sum(r.tm.d[i])))
			}
			all.stack = append(all.stack, r.tm.stack...)
			all.tcp = append(all.tcp, r.tm.tcp...)
			stackTotal = append(stackTotal, float64(sum(r.tm.stack)))
			tcpTotal = append(tcpTotal, float64(sum(r.tm.tcp)))
		}
		t0 := tracedRounds[0].tm
		timer := func(name string, xs []int64, totals []float64, calls int) {
			s := sorted(xs)
			set(metric{name + ".p50", "ns"}, quantile(s, 0.50))
			set(metric{name + ".p99", "ns"}, quantile(s, 0.99))
			set(metric{name + ".total_ms", "ms"}, medianF(totals)/1e6)
			set(metric{name + ".calls", "count"}, float64(calls))
		}
		for i, n := range spanNames {
			if slices.Contains(timerNames, n) {
				timer(n, all.d[i], spanTotal[i], len(t0.d[i]))
			}
		}
		timer("stack.self_ns", all.stack, stackTotal, len(t0.stack))
		timer("tcp.self_ns", all.tcp, tcpTotal, len(t0.tcp))
		cpu := tm.cpu
		for _, g := range groups {
			set(metric{"host.self_frac." + g, "ratio"}, cpu.frac(g))
		}
		set(metric{"go.gc_cycles", "count"}, median(plainRounds, func(r *round) float64 { return float64(r.rt.gcs) }))
		set(metric{"go.alloc_bytes_per_op", "bytes"}, median(plainRounds, func(r *round) float64 { return float64(r.rt.bytes) / float64(r.ops) }))
		for _, m := range countMetrics {
			set(m, r0.counts[m.name])
		}
		for _, s := range vstages {
			set(metric{"vstage." + s + ".p99_ms", "virtual-ms"}, tracedRounds[0].vstageMs[s])
		}
		// The decorator's view of the engine against the profile's: the
		// engine spans' time (flash included) as a share of the timed run,
		// beside the profile's flash plus engine-package share.
		engineFrac := median(tracedRounds, func(r *round) float64 {
			var t int64
			for i := spEngWrite; i <= spEngCleanIdle; i++ {
				t += sum(r.tm.d[i])
			}
			return float64(t) / float64(r.timed.Nanoseconds())
		})
		profFrac := cpu.frac("flash") + cpu.frac("ftl") + cpu.frac("pdl")
		set(metric{"attrib.engine_span_frac", "ratio"}, engineFrac)
		set(metric{"attrib.engine_profile_frac", "ratio"}, profFrac)
		// Overhead from adjacent untraced/traced pairs, which share host
		// conditions.
		var slow []float64
		for i := 0; i+1 < len(rounds); i += 2 {
			slow = append(slow, 1-opsPerSec(rounds[i+1])/opsPerSec(rounds[i]))
		}
		set(metric{"trace.ops_per_s", "op/s"}, median(tracedRounds, opsPerSec))
		set(metric{"trace.overhead_frac", "ratio"}, medianF(slow))
		lines = append(lines,
			fmt.Sprintf("attribution: engine spans %.3f of timed host time; profile flash+ftl+pdl %.3f", engineFrac, profFrac),
			"top groups: "+topGroups(cpu, 3),
			"top leaf packages: "+strings.Join(cpu.top(3), ", "))
		if err := os.MkdirAll(outdir, 0o755); err != nil {
			return nil, nil, err
		}
		last := tracedRounds[len(tracedRounds)-1]
		if err := writeSpans(filepath.Join(outdir, name+".spans.tsv"), last.spans); err != nil {
			return nil, nil, err
		}
		if err := os.WriteFile(filepath.Join(outdir, name+".cpu.pprof"), tm.prof.Bytes(), 0o644); err != nil {
			return nil, nil, err
		}
	}
	for _, m := range append(append([]metric{}, endToEnd...), perLayer()...) {
		if v, ok := rep.Metrics[m.name]; ok {
			lines = append(lines, fmt.Sprintf("%-36s %14.6g %s", m.name, v.Value, v.Unit))
		}
	}
	return rep, lines, nil
}

// allocsPerOp pools the rounds: a GC clears the stack's sync.Pools, so
// a round that happens to collect allocates a few hundred objects more,
// and pooling spreads that over every round instead of flipping the
// median between the two cases.
func allocsPerOp(rounds []*round) float64 {
	var allocs uint64
	var ops int64
	for _, r := range rounds {
		allocs += r.rt.allocs
		ops += r.ops
	}
	return float64(allocs) / float64(ops)
}

func topGroups(c *cpuShares, n int) string {
	gs := append([]string{}, groups...)
	for i := 0; i < len(gs); i++ {
		for j := i + 1; j < len(gs); j++ {
			if c.byGroup[gs[j]] > c.byGroup[gs[i]] {
				gs[i], gs[j] = gs[j], gs[i]
			}
		}
	}
	var parts []string
	for _, g := range gs[:n] {
		parts = append(parts, fmt.Sprintf("%s %.3f", g, c.frac(g)))
	}
	return strings.Join(parts, ", ")
}
