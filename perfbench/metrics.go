package main

import (
	"bytes"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"
)

// metric names a printed figure and its unit.
type metric struct{ name, unit string }

// endToEnd are the figures the untraced run prints (BENCHMARK.json's
// end_to_end list). Every workload prints all of them; README.md in
// this directory defines each one per workload.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"allocs_per_op", "allocs"},
	{"peak_heap_mb", "MB"},
	{"v_goodput", "op/virtual-s"},
	{"v_p50_ms", "virtual-ms"},
	{"v_p99_ms", "virtual-ms"},
	{"write_amp", "ratio"},
	{"erase_cov", "ratio"},
}

// hostMetrics are the host-time throughput and round trip of the
// untraced rounds. Contention from other tenants of a shared host moves
// them by tens of percent between runs, more than any bound could
// allow, so they are recorded beside the per-layer figures and not
// gated (the same policy the repository applies to ns/op).
var hostMetrics = []metric{
	{"ops_per_s", "op/s"},
	{"rtt_p50_us", "us"},
	{"rtt_p99_us", "us"},
}

// timerNames are the host-time per-layer timers; each prints p50, p99,
// total per round and calls per round.
var timerNames = []string{
	"fs.write_ns", "fs.sync_ns", "storman.tick_ns",
	"server.do_ns.get", "server.do_ns.put", "server.do_ns.truncate", "server.do_ns.delete", "server.do_ns.sync",
	"engine.write_ns", "engine.read_ns", "engine.trim_ns", "engine.clean_idle_ns",
	"stack.self_ns",
	"cluster.do_ns.get", "cluster.do_ns.put", "cluster.do_ns.truncate", "cluster.do_ns.delete", "cluster.do_ns.sync",
	"tcp.self_ns",
}

// countMetrics are the per-layer figures every round computes, traced or
// not, from the layers' Stats() and the virtual clock. They repeat
// exactly for a seed.
var countMetrics = []metric{
	{"flash.programs", "count"},
	{"flash.erases", "count"},
	{"flash.bytes_programmed", "bytes"},
	{"flash.read_stall_ms", "virtual-ms"},
	{"engine.cleans", "count"},
	{"engine.copied_pages", "count"},
	{"engine.idle_cleans", "count"},
	{"engine.retired_blocks", "count"},
	{"engine.copied_per_clean", "ratio"},
	{"storman.absorbed_frac", "ratio"},
	{"storman.dram_read_frac", "ratio"},
	{"storman.flushed_mb", "MB"},
	{"storman.cows", "count"},
	{"storman.evictions", "count"},
	{"server.shed", "count"},
	{"server.not_found", "count"},
	{"server.batched_sync_frac", "ratio"},
	{"cluster.shed_retries", "count"},
	{"cluster.replica_sheds", "count"},
	{"cluster.read_failovers", "count"},
	{"cluster.rebalances", "count"},
	{"cluster.migrated_keys", "count"},
	{"node.max_shed", "count"},
	{"fail_frac", "ratio"},
}

// vstages are the server's virtual-time latency stages; the traced run
// prints each one's p99.
var vstages = []string{"queue", "buffer", "flush", "flash", "clean", "other"}

// perLayer lists the traced run's figures (BENCHMARK.json's per_layer).
func perLayer() []metric {
	out := append([]metric{}, hostMetrics...)
	for _, t := range timerNames {
		out = append(out, metric{t + ".p50", "ns"}, metric{t + ".p99", "ns"},
			metric{t + ".total_ms", "ms"}, metric{t + ".calls", "count"})
	}
	for _, g := range groups {
		out = append(out, metric{"host.self_frac." + g, "ratio"})
	}
	out = append(out, metric{"go.gc_cycles", "count"}, metric{"go.alloc_bytes_per_op", "bytes"})
	out = append(out, countMetrics...)
	for _, s := range vstages {
		out = append(out, metric{"vstage." + s + ".p99_ms", "virtual-ms"})
	}
	return append(out,
		metric{"attrib.engine_span_frac", "ratio"},
		metric{"attrib.engine_profile_frac", "ratio"},
		metric{"trace.ops_per_s", "op/s"},
		metric{"trace.overhead_frac", "ratio"})
}

// meter brackets each round's timed region. It reads the Go runtime's
// allocation, GC and live-heap counters through runtime/metrics, which
// does not stop the world, and in the traced run profiles the CPU for
// the timed region only.
type meter struct {
	s      []metrics.Sample
	peak   uint64
	traced bool
	cpu    *cpuShares
	prof   bytes.Buffer // the latest round's CPU profile
	t0     time.Time
	rt0    runtimeCounts
}

func newMeter(traced bool) *meter {
	return &meter{traced: traced, cpu: newCPUShares(), s: []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/live:bytes"},
	}}
}

type runtimeCounts struct{ allocs, bytes, gcs uint64 }

func (m *meter) read() runtimeCounts {
	metrics.Read(m.s)
	m.notePeak()
	return runtimeCounts{m.s[0].Value.Uint64(), m.s[1].Value.Uint64(), m.s[2].Value.Uint64()}
}

// begin starts the timed region, after a GC so that every round starts
// from the same heap.
func (m *meter) begin() error {
	runtime.GC()
	m.peak = 0
	if m.traced {
		m.prof.Reset()
		if err := pprof.StartCPUProfile(&m.prof); err != nil {
			return err
		}
	}
	m.rt0 = m.read()
	m.t0 = time.Now()
	return nil
}

// end closes the timed region and records it in r.
func (m *meter) end(r *round) error {
	r.timed = time.Since(m.t0)
	r.rt = m.read().sub(m.rt0)
	r.peakLive = m.peak
	if m.traced {
		pprof.StopCPUProfile()
		return m.cpu.addProfile(m.prof.Bytes())
	}
	return nil
}

// sample records the live heap as marked by the latest GC; the timed
// loops call it every 1024 operations.
func (m *meter) sample() {
	metrics.Read(m.s[3:])
	m.notePeak()
}

func (m *meter) notePeak() {
	if v := m.s[3].Value.Uint64(); v > m.peak {
		m.peak = v
	}
}

func (c runtimeCounts) sub(o runtimeCounts) runtimeCounts {
	return runtimeCounts{c.allocs - o.allocs, c.bytes - o.bytes, c.gcs - o.gcs}
}
