// Package blockmgr is the block layer both storage engines sit on: the
// erase-block lifecycle the paper's storage manager runs under flash's
// three constraints (erase-before-write, finite endurance, garbage
// collection — §3.3), kept in one place so each engine is only its
// mapping and its on-flash record formats.
//
// The manager owns each block's lifecycle state (free, open log head,
// closed, retired) with the free and retired counts; erase-or-retire,
// where flash.ErrWornOut retires the block; the mount-time block pass
// that retires worn empty blocks and re-erases dirty empty ones; the
// foreground and idle reclaim loops; the cleaner-lag and free-margin
// signals; and the free_blocks / cleaner_lag_blocks /
// write_amplification gauges. Engines keep the policy: which free block
// to open next, which closed block to clean, and how to move its live
// data out.
//
// Retiring a block spends over-provisioning, never logical space: the
// host-visible capacity is fixed for an engine's life, and ErrNoSpace
// from the reclaim loop is the end-of-life signal.
package blockmgr

import (
	"errors"
	"fmt"

	"ssmobile/internal/engine"
	"ssmobile/internal/flash"
	"ssmobile/internal/obs"
	"ssmobile/internal/sim"
)

// State is where a block is in its erase lifecycle.
type State uint8

// Block states.
const (
	// Free blocks are erased and wait to become a log head.
	Free State = iota
	// Open blocks are log heads taking new programs.
	Open
	// Closed blocks hold data and are candidates for cleaning.
	Closed
	// Retired blocks wore out and are out of service for good.
	Retired
)

// Config parameterises a manager: the engine's reclaim knobs and the
// policy hooks the reclaim loops call.
type Config struct {
	// Layer names the engine; it labels the manager's spans, counters
	// and gauges ("layer" and "engine").
	Layer string
	// ReserveBlocks is the cleaning headroom: EnsureSpace cleans while
	// the free-block count is at or below it.
	ReserveBlocks int
	// IdleCleanThreshold is CleanIdle's free-block target; zero
	// disables idle cleaning.
	IdleCleanThreshold int
	// BackgroundErase issues erases asynchronously so the writer does
	// not stall for them.
	BackgroundErase bool
	// Obs receives the manager's metrics and clean spans.
	Obs *obs.Observer
	// HostBytes is the engine's host-bytes-written counter, the
	// denominator of write amplification.
	HostBytes *obs.Counter
	// ErrNoSpace is returned when nothing can be reclaimed and no block
	// is free.
	ErrNoSpace error

	// PickVictim returns the closed block to clean next, or -1 when none
	// has anything to reclaim.
	PickVictim func() int
	// Relocate moves every live page out of the victim so it can be
	// erased.
	Relocate func(victim int) error
	// Erased resets the engine's view of a block erased back to free
	// (the manager has already marked it Free).
	Erased func(b int)
	// Retired records a block retired because an erase found it worn
	// out (the manager has already marked it Retired).
	Retired func(b int)
}

// Manager tracks every erase block of one device. Not safe for
// concurrent use.
type Manager struct {
	dev   *flash.Device
	clock *sim.Clock
	cfg   Config

	state         []State
	free, retired int

	cleans, idleCleans *obs.Counter
}

// New builds a manager over dev with every block free, which is how
// flash.New delivers a device, and registers its counters and gauges.
func New(dev *flash.Device, clock *sim.Clock, cfg Config) *Manager {
	nb := dev.NumBlocks()
	m := &Manager{dev: dev, clock: clock, cfg: cfg, state: make([]State, nb), free: nb}
	o := cfg.Obs
	m.cleans = o.Counter("cleans_total", obs.Labels{"layer": cfg.Layer})
	m.idleCleans = o.Counter("idle_cleans_total", obs.Labels{"layer": cfg.Layer})
	lbl := func(kv ...string) obs.Labels {
		l := obs.Labels{"layer": cfg.Layer, "engine": cfg.Layer}
		for i := 0; i < len(kv); i += 2 {
			l[kv[i]] = kv[i+1]
		}
		return l
	}
	o.GaugeFunc("free_blocks", lbl(), func() float64 { return float64(m.free) })
	// The serving layer reads this same lag signal to decide when to shed
	// load, so backpressure and dashboards share one definition of
	// "cleaner behind".
	o.GaugeFunc("cleaner_lag_blocks", lbl(), func() float64 { return float64(m.CleanerLag()) })
	// Write amplification: flash bytes programmed per host byte written,
	// overall and decomposed by wear-attribution cause (the device charges
	// every program to the observer's active obs.Cause). The per-cause
	// series sum to the overall gauge by construction.
	o.GaugeFunc("write_amplification", lbl(), func() float64 {
		return m.amplification(dev.Stats().BytesProgrammed)
	})
	for _, c := range obs.Causes {
		c := c
		o.GaugeFunc("write_amplification", lbl("cause", string(c)), func() float64 {
			return m.amplification(dev.CauseBytesProgrammed(c))
		})
	}
	return m
}

func (m *Manager) amplification(flashBytes int64) float64 {
	hb := m.cfg.HostBytes.Value()
	if hb == 0 {
		return 0
	}
	return float64(flashBytes) / float64(hb)
}

// WriteAmplification reports flash bytes programmed per host byte
// written.
func (m *Manager) WriteAmplification() float64 {
	return m.amplification(m.dev.Stats().BytesProgrammed)
}

// State reports block b's lifecycle state.
func (m *Manager) State(b int) State { return m.state[b] }

// Free reports the free-block count.
func (m *Manager) Free() int { return m.free }

// Retired reports how many blocks have retired.
func (m *Manager) Retired() int { return m.retired }

// Cleans reports how many blocks have been cleaned, foreground and idle.
func (m *Manager) Cleans() int64 { return m.cleans.Value() }

// IdleCleans reports how many of those cleans ran off the write path.
func (m *Manager) IdleCleans() int64 { return m.idleCleans.Value() }

// Margin reports the free fraction of the block pool — the headroom the
// cleaner is defending.
func (m *Manager) Margin() float64 {
	if len(m.state) == 0 {
		return 0
	}
	return float64(m.free) / float64(len(m.state))
}

// CleanerLag reports how many blocks the cleaner is behind its
// free-space target: IdleCleanThreshold when idle cleaning is enabled,
// otherwise one block above the foreground reserve. Zero means cleaning
// is keeping pace; positive values mean new writes are eating free space
// faster than it is being reclaimed.
func (m *Manager) CleanerLag() int {
	target := m.cfg.IdleCleanThreshold
	if target <= 0 {
		target = m.cfg.ReserveBlocks + 1
	}
	if lag := target - m.free; lag > 0 {
		return lag
	}
	return 0
}

// Open makes free block b a log head; the engine chose it from its own
// free pool.
func (m *Manager) Open(b int) {
	if m.state[b] != Free {
		panic(fmt.Sprintf("blockmgr: open of block %d in state %d", b, m.state[b]))
	}
	m.state[b] = Open
	m.free--
}

// Close marks log head b full: it now holds data the cleaner may move.
func (m *Manager) Close(b int) { m.state[b] = Closed }

// Span opens an op span against the engine's clock and the device's
// energy meter, so span energy includes the device work underneath.
func (m *Manager) Span(op string) obs.SpanRef {
	return m.cfg.Obs.Span(m.clock, m.dev.Meter(), m.cfg.Layer, op)
}

// Erase erases block b, in the background when configured. A worn-out
// block is retired instead: retired reports it, and the engine's Retired
// hook has run.
func (m *Manager) Erase(b int) (retired bool, err error) {
	if m.cfg.BackgroundErase {
		err = m.dev.EraseAsync(b)
	} else {
		_, err = m.dev.Erase(b)
	}
	if errors.Is(err, flash.ErrWornOut) {
		m.state[b] = Retired
		m.retired++
		m.cfg.Retired(b)
		return true, nil
	}
	return false, err
}

// Clean relocates the victim's live data and erases it back into the
// free pool (or retires it).
func (m *Manager) Clean(victim int) (err error) {
	// A clean running under a request context is induced work: the
	// request did not ask for it, its timing just got charged it. The
	// span carries a FollowFrom link to the request's root, and the
	// clean stage is sticky — relocation reads/programs and the erase
	// all count as cleaning stall. Idle cleans run outside any context
	// and stay anonymous background spans.
	o := m.cfg.Obs
	sp := o.InducedSpan(m.clock, m.dev.Meter(), m.cfg.Layer, "clean", obs.StageClean)
	defer func() { sp.End(int64(m.dev.BlockBytes()), err) }()
	// Charge the relocation programs and the victim erase to the cleaner —
	// unless an idle-clean scope is already active: idle cleaning is sticky
	// over the shared clean path, so the idle/foreground split survives.
	if o.Cause() != obs.CauseIdleClean {
		defer o.PushCause(obs.CauseCleanerMigrate)()
	}
	m.cleans.Inc()
	if err := m.cfg.Relocate(victim); err != nil {
		return err
	}
	retired, err := m.Erase(victim)
	if err != nil || retired {
		return err // a retirement shrank the pool, but the clean freed its pages
	}
	m.state[victim] = Free
	m.free++
	m.cfg.Erased(victim)
	return nil
}

// EnsureSpace cleans until the free pool is above the reserve. A device
// that is exactly full with no dead space has nothing to clean but can
// still absorb writes from its remaining free blocks, so the absence of
// a victim is only fatal once the free pool is empty.
func (m *Manager) EnsureSpace() error {
	for m.free <= m.cfg.ReserveBlocks {
		victim := m.cfg.PickVictim()
		if victim == -1 {
			if m.free > 0 {
				return nil
			}
			return m.cfg.ErrNoSpace
		}
		if err := m.Clean(victim); err != nil {
			return err
		}
	}
	return nil
}

// CleanIdle cleans during idle time until IdleCleanThreshold blocks are
// free (or nothing is cleanable), so foreground writes rarely wait for
// the cleaner. The storage manager calls it from its daemon tick.
func (m *Manager) CleanIdle() error {
	if m.cfg.IdleCleanThreshold <= 0 {
		return nil
	}
	defer m.cfg.Obs.PushCause(obs.CauseIdleClean)()
	for m.free < m.cfg.IdleCleanThreshold {
		victim := m.cfg.PickVictim()
		if victim == -1 {
			return nil
		}
		m.idleCleans.Inc()
		if err := m.Clean(victim); err != nil {
			return err
		}
	}
	return nil
}

// Mount is the mount-time block pass, run after the engine's record scan
// over a manager whose blocks are all still free. hasRecords[b] reports
// whether block b holds any valid record. In block order:
//
//   - a block with records is Closed — even when worn, because its last
//     rated erase succeeded and it took data afterwards; it retires when
//     its next erase fails, as it would have without the power cut;
//   - a worn block with no record is Retired;
//   - any other record-free block that is not blank (a torn program whose
//     record never landed, or an interrupted erase that left the array
//     trembling) is erased again as charged device work, since engines
//     program free blocks without erasing first; it retires if that
//     erase wore it out.
//
// taken, when non-nil, is called for each block that leaves the free
// state, at the moment it does. The re-erases and retirements are
// counted into stats.
func (m *Manager) Mount(stats *engine.MountStats, hasRecords []bool, taken func(b int)) error {
	// The re-erases are recovery, not cleaning.
	defer m.cfg.Obs.PushCause(obs.CauseMountRecovery)()
	for b := range m.state {
		if hasRecords[b] {
			m.take(b, Closed, taken)
			continue
		}
		if !m.dev.WornOut(b) {
			if _, dirty := m.nonBlankAt(b); !dirty {
				continue
			}
			if _, err := m.dev.Erase(b); err != nil {
				return err
			}
			stats.ReErasedBlocks++
			if !m.dev.WornOut(b) {
				continue
			}
		}
		m.take(b, Retired, taken)
		m.retired++
		stats.RetiredBlocks++
	}
	return nil
}

func (m *Manager) take(b int, s State, taken func(int)) {
	m.state[b] = s
	m.free--
	if taken != nil {
		taken(b)
	}
}

// CheckInvariants verifies the free and retired counts against the
// block states, and that every free block is genuinely erased: engines
// program free blocks without erasing first, so residue here (a
// crash-recovery leak) would surface later as a phantom overwrite.
func (m *Manager) CheckInvariants() error {
	free, retired := 0, 0
	for b, s := range m.state {
		switch s {
		case Free:
			free++
			if off, dirty := m.nonBlankAt(b); dirty {
				return fmt.Errorf("%s: free block %d not erased at offset %d", m.cfg.Layer, b, off)
			}
		case Retired:
			retired++
		}
	}
	if free != m.free || retired != m.retired {
		return fmt.Errorf("%s: free/retired counts %d/%d, block states say %d/%d",
			m.cfg.Layer, m.free, m.retired, free, retired)
	}
	return nil
}

// nonBlankAt reports the first non-erased byte offset in the block's
// data or spare area (spare offsets follow data offsets), using
// uncharged peeks. A fully erased block returns dirty == false.
func (m *Manager) nonBlankAt(b int) (off int64, dirty bool) {
	dc := m.dev.Config()
	start := m.dev.BlockAddr(b)
	for i := int64(0); i < int64(dc.BlockBytes); i++ {
		if m.dev.Peek(start+i) != 0xFF {
			return i, true
		}
	}
	if dc.SpareBytes > 0 {
		firstUnit := start / int64(dc.SpareUnitBytes)
		unitsPerBlock := int64(dc.BlockBytes / dc.SpareUnitBytes)
		for u := int64(0); u < unitsPerBlock; u++ {
			for j, sb := range m.dev.PeekSpare(firstUnit + u) {
				if sb != 0xFF {
					return int64(dc.BlockBytes) + u*int64(dc.SpareBytes) + int64(j), true
				}
			}
		}
	}
	return 0, false
}
