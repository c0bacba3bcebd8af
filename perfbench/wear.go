package main

import (
	"bytes"
	"fmt"
	"time"

	"ssmobile/internal/core"
	"ssmobile/internal/engine"
	"ssmobile/internal/flash"
	"ssmobile/internal/sim"
	"ssmobile/internal/storman"
)

// The wear workloads: partial overwrites of a 75%-full card, skewed so
// that 90% of them land on the hottest 10% of files. The card is
// cleaning-bound: the write buffer cannot hold the hot set, so the
// cleaner and flash program/erase do most of the work.
const (
	wearFileBytes  = 64 << 10
	wearFill       = 0.75
	wearOps        = 30000 // per round, at scale 1
	wearGapMean    = 700 * sim.Millisecond
	wearSyncEvery  = 512
	wearPoolBytes  = 1 << 20
	wearMinWrite   = 512
	wearMaxWrite   = 4096
	wearHotFiles   = 0.10
	wearHotWrites  = 0.90
	wearChunkBytes = 4096
)

func wearCard(eng string) core.SolidStateConfig {
	return core.SolidStateConfig{
		DRAMBytes:      8 << 20,
		FlashBytes:     16 << 20,
		BufferBytes:    512 << 10,
		WriteBackDelay: 2 * sim.Second,
		Engine:         eng,
	}
}

type wearOp struct {
	file int
	off  int64
	data []byte
	gap  sim.Duration
}

type wear struct {
	engine string
	seed   int64
	nOps   int
	pool   []byte
	files  int
	paths  []string
	ops    []wearOp
}

func newWear(eng string, seed int64, scale float64) *wear {
	w := &wear{engine: eng, seed: seed, nOps: max(1, int(wearOps*scale))}
	rng := sim.NewRNG(seed)
	w.pool = make([]byte, wearPoolBytes)
	for i := range w.pool {
		w.pool[i] = byte(rng.Uint64())
	}
	return w
}

// generate draws the op stream once the card's logical capacity is
// known (it is the same for every round).
func (w *wear) generate(logical int64) {
	w.files = int(float64(logical) * wearFill / wearFileBytes)
	w.paths = make([]string, w.files)
	for i := range w.paths {
		w.paths[i] = fmt.Sprintf("/w%04d", i)
	}
	hot := max(1, int(float64(w.files)*wearHotFiles))
	rng := sim.NewRNG(w.seed ^ 0x5eed)
	w.ops = make([]wearOp, w.nOps)
	for i := range w.ops {
		f := hot + rng.Intn(w.files-hot)
		if rng.Bool(wearHotWrites) {
			f = rng.Intn(hot)
		}
		n := wearMinWrite + rng.Intn(wearMaxWrite-wearMinWrite+1)
		p := rng.Intn(len(w.pool) - n)
		w.ops[i] = wearOp{
			file: f,
			off:  rng.Int63n(wearFileBytes - int64(n) + 1),
			data: w.pool[p : p+n],
			gap:  sim.Duration(rng.Exp(float64(wearGapMean))),
		}
	}
}

// initial is file f's content after set-up.
func (w *wear) initial(f int, buf []byte) []byte {
	buf = buf[:0]
	for k := 0; k < wearFileBytes/wearChunkBytes; k++ {
		p := ((f*wearFileBytes/wearChunkBytes + k) * 977) % (len(w.pool) - wearChunkBytes)
		buf = append(buf, w.pool[p:p+wearChunkBytes]...)
	}
	return buf
}

func (w *wear) round(traced bool, m *meter) (*round, error) {
	var rec *recorder
	if traced {
		rec = newRecorder(time.Now())
	}
	cfg := wearCard(w.engine)
	if traced {
		cfg.Obs = tracedObserver()
	}
	t0 := time.Now()
	c, err := buildCard(cfg, wrapEngine(rec))
	if err != nil {
		return nil, err
	}
	if w.ops == nil {
		w.generate(c.Engine.LogicalBytes())
	}
	buf := make([]byte, 0, wearFileBytes)
	for f := 0; f < w.files; f++ {
		if err := c.FS.Create(w.paths[f]); err != nil {
			return nil, err
		}
		buf = w.initial(f, buf)
		for off := 0; off < wearFileBytes; off += wearChunkBytes {
			if _, err := c.FS.WriteAt(w.paths[f], int64(off), buf[off:off+wearChunkBytes]); err != nil {
				return nil, err
			}
			if err := c.Storage.Tick(); err != nil {
				return nil, err
			}
		}
	}
	if err := c.FS.Sync(); err != nil {
		return nil, err
	}
	r := &round{setup: time.Since(t0), ops: int64(len(w.ops))}

	if rec != nil {
		rec.spans = rec.spans[:0]
	}
	before := snapCard(c)
	host := make([]int64, len(w.ops))
	vlat := make([]int64, len(w.ops))
	vstart := c.Clock.Now()
	arrival := vstart
	if err := m.begin(); err != nil {
		return nil, err
	}
	for i := range w.ops {
		op := &w.ops[i]
		if i&1023 == 0 {
			m.sample()
		}
		arrival = arrival.Add(op.gap)
		if c.Clock.Now() < arrival {
			c.Clock.AdvanceTo(arrival)
		}
		h0 := time.Now()
		sp := rec.begin(spOp)
		s := rec.begin(spFSWrite)
		_, err := c.FS.WriteAt(w.paths[op.file], op.off, op.data)
		rec.end(s)
		if err == nil {
			s = rec.begin(spTick)
			err = c.Storage.Tick()
			rec.end(s)
		}
		if err == nil && (i+1)%wearSyncEvery == 0 {
			s = rec.begin(spFSSync)
			err = c.FS.Sync()
			rec.end(s)
		}
		rec.end(sp)
		host[i] = int64(time.Since(h0))
		if err != nil {
			m.end(r)
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		vlat[i] = int64(c.Clock.Now().Sub(arrival))
	}
	if err := m.end(r); err != nil {
		return nil, err
	}
	vend := c.Clock.Now()
	r.host = host
	after := snapCard(c)
	r.counts = cardCounts(before, after)
	sv := sorted(vlat)
	r.counts["v_goodput"] = float64(len(w.ops)) / vend.Sub(vstart).Seconds()
	r.counts["v_p50_ms"] = quantile(sv, 0.50) / 1e6
	r.counts["v_p99_ms"] = quantile(sv, 0.99) / 1e6
	if rec != nil {
		r.tm = &timers{}
		r.tm.addSpans(rec.spans)
		r.spans = rec.spans
	}

	// Output check: every file against the shadow model.
	shadow := make([][]byte, w.files)
	for f := range shadow {
		shadow[f] = w.initial(f, make([]byte, 0, wearFileBytes))
	}
	for i := range w.ops {
		op := &w.ops[i]
		copy(shadow[op.file][op.off:], op.data)
	}
	got := make([]byte, wearFileBytes+1)
	for f := range shadow {
		n, err := c.FS.ReadAt(w.paths[f], 0, got)
		if err != nil || !bytes.Equal(got[:n], shadow[f]) {
			r.mismatches++
		}
	}
	if err := c.check(); err != nil {
		return nil, err
	}
	r.failed = r.mismatches
	r.counts["fail_frac"] = float64(r.failed) / float64(r.ops)
	return r, nil
}

// cardSnap is the counters of one card at an instant.
type cardSnap struct {
	fl  flash.Stats
	eng engine.Stats
	sm  storman.Stats
}

func snapCard(c *card) cardSnap {
	return cardSnap{fl: c.Flash.Stats(), eng: c.Engine.Stats(), sm: c.Storage.Stats()}
}

// cardCounts derives the timed run's layer counts from two snapshots.
// write_amp is flash bytes programmed per byte the storage manager
// wrote to the engine during the timed run; erase_cov is the device's
// erase-count spread at the end.
func cardCounts(b, a cardSnap) map[string]float64 {
	m := map[string]float64{}
	for _, c := range countMetrics {
		m[c.name] = 0
	}
	m["write_amp"] = ratio(a.eng.FlashBytesProgrammed-b.eng.FlashBytesProgrammed, a.eng.HostBytesWritten-b.eng.HostBytesWritten)
	m["erase_cov"] = a.fl.EraseCountCoV
	m["flash.programs"] = float64(a.fl.Programs - b.fl.Programs)
	m["flash.erases"] = float64(a.fl.Erases - b.fl.Erases)
	m["flash.bytes_programmed"] = float64(a.fl.BytesProgrammed - b.fl.BytesProgrammed)
	m["flash.read_stall_ms"] = float64(a.fl.ReadStallNs-b.fl.ReadStallNs) / 1e6
	cleans := a.eng.Cleans - b.eng.Cleans
	copied := a.eng.CopiedPages - b.eng.CopiedPages
	m["engine.cleans"] = float64(cleans)
	m["engine.copied_pages"] = float64(copied)
	m["engine.idle_cleans"] = float64(a.eng.IdleCleans - b.eng.IdleCleans)
	m["engine.retired_blocks"] = float64(a.eng.RetiredBlocks)
	m["engine.copied_per_clean"] = ratio(copied, cleans)
	hostW := a.sm.HostBytesWritten - b.sm.HostBytesWritten
	m["storman.absorbed_frac"] = ratio(a.sm.OverwriteAbsorbedBytes-b.sm.OverwriteAbsorbedBytes, hostW)
	dramR, flashR := a.sm.DRAMReads-b.sm.DRAMReads, a.sm.FlashReads-b.sm.FlashReads
	m["storman.dram_read_frac"] = ratio(dramR, dramR+flashR)
	m["storman.flushed_mb"] = float64(a.sm.FlushedBytes-b.sm.FlushedBytes) / (1 << 20)
	m["storman.cows"] = float64(a.sm.CopyOnWrites - b.sm.CopyOnWrites)
	m["storman.evictions"] = float64(a.sm.Evictions - b.sm.Evictions)
	return m
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
