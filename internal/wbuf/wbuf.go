// Package wbuf implements the write-back policy of the battery-backed
// DRAM write buffer in the paper's physical storage manager (§3.3):
// written data is held in DRAM and flushed to flash lazily, so that the
// many bytes that die young — short-lived files and blocks that are
// promptly overwritten — never reach flash at all.
//
// This is the mechanism behind the paper's quantitative anchor: "as little
// as one megabyte of battery-backed RAM can reduce write traffic by 40 to
// 50%" (citing Baker et al.). Because the buffer is battery-backed, data
// parked here survives OS crashes, which is what makes the laziness safe.
//
// The buffer tracks dirty blocks, not their bytes: each entry is a key and
// an extent, the length of the block's dirty prefix. Where the bytes live
// is the caller's business — the storage manager keeps them in DRAM pages,
// and the trace replays of E3 have none at all. The buffer decides when a
// block leaves and hands it to its Sink.
//
// The buffer absorbs traffic through two routes:
//
//   - overwrite absorption: the part of a write that overlaps a buffered
//     block's extent replaces bytes that will now never reach flash;
//   - death absorption: when a file is deleted or truncated, its dirty
//     bytes are dropped without ever being flushed.
//
// Dirty blocks leave the buffer either because a write-back daemon flushes
// blocks older than the write-back delay (the classic 30-second Unix
// syncer policy) or because the buffer is full and must evict.
package wbuf

import (
	"errors"
	"fmt"

	"ssmobile/internal/obs"
	"ssmobile/internal/sim"
)

// ErrTooLarge reports a write reaching past the buffer's block size.
var ErrTooLarge = errors.New("wbuf: write exceeds block size")

// Key names one buffered block: an object (file) and a block index within
// it.
type Key struct {
	Object uint64
	Block  int64
}

// Sink receives the blocks the buffer flushes to stable storage: bytes
// [off, off+n) of the block. A buffered block flushes its whole extent
// (off 0); with the buffer disabled, each host write passes through as is.
type Sink interface {
	FlushBlock(key Key, off, n int) error
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(key Key, off, n int) error

// FlushBlock calls f.
func (f SinkFunc) FlushBlock(key Key, off, n int) error { return f(key, off, n) }

// EvictPolicy selects which dirty block is flushed first when the buffer
// is full.
type EvictPolicy int

// Eviction policies.
const (
	// EvictLRW flushes the least recently written block: the hot set stays
	// buffered, maximising overwrite absorption.
	EvictLRW EvictPolicy = iota
	// EvictFIFO flushes the block that has been dirty longest regardless
	// of recent activity.
	EvictFIFO
)

// String names the policy.
func (p EvictPolicy) String() string {
	switch p {
	case EvictLRW:
		return "lrw"
	case EvictFIFO:
		return "fifo"
	default:
		return fmt.Sprintf("EvictPolicy(%d)", int(p))
	}
}

// Config parameterises the buffer.
type Config struct {
	// CapacityBytes bounds the total buffered extent. Zero means the
	// buffer is disabled: every write flushes through immediately.
	CapacityBytes int64
	// BlockBytes is the block size; no write may reach past it.
	BlockBytes int
	// WriteBackDelay is the age at which the daemon flushes a dirty block,
	// measured from when the block first became dirty. Zero disables
	// age-based flushing (blocks leave only by eviction or Sync).
	WriteBackDelay sim.Duration
	// Policy selects the eviction order.
	Policy EvictPolicy
	// Obs receives the buffer's metrics; nil falls back to obs.Default().
	Obs *obs.Observer
}

// Stats aggregates the buffer's traffic accounting.
type Stats struct {
	// HostBytes is everything the host wrote.
	HostBytes int64
	// FlushedBytes is what actually reached stable storage.
	FlushedBytes int64
	// OverwriteAbsorbedBytes were absorbed by in-place overwrites.
	OverwriteAbsorbedBytes int64
	// DeleteAbsorbedBytes were dropped when their file died or shrank.
	DeleteAbsorbedBytes int64
	// Evictions counts capacity-forced flushes; DaemonFlushes age-forced.
	Evictions, DaemonFlushes int64
}

// Reduction reports the write-traffic reduction 1 − flushed/host, the
// metric the paper quotes.
func (s Stats) Reduction() float64 {
	if s.HostBytes == 0 {
		return 0
	}
	return 1 - float64(s.FlushedBytes)/float64(s.HostBytes)
}

type entry struct {
	key        Key
	extent     int
	dirtySince sim.Time
	// links thread the entry onto writeOrder (LRW), dirtyOrder (dirty-age)
	// and its object's list intrusively, so queueing never allocates.
	links [3]entryLinks
}

// Link-pair indexes into entry.links.
const (
	lruLink  = iota // writeOrder: front = least recently written
	fifoLink        // dirtyOrder: front = dirty longest
	objLink         // byObject: the object's blocks, unordered
)

type entryLinks struct {
	prev, next *entry
	queued     bool
}

// entryList is an intrusive doubly-linked list of entries threading the
// link pair selected by idx; it replaces container/list so list
// housekeeping touches only existing nodes.
type entryList struct {
	head, tail *entry
	idx        int
	n          int
}

func (l *entryList) Front() *entry { return l.head }

func (l *entryList) PushBack(e *entry) {
	lk := &e.links[l.idx]
	lk.prev, lk.next, lk.queued = l.tail, nil, true
	if l.tail != nil {
		l.tail.links[l.idx].next = e
	} else {
		l.head = e
	}
	l.tail = e
	l.n++
}

func (l *entryList) Remove(e *entry) {
	lk := &e.links[l.idx]
	if !lk.queued {
		return
	}
	if lk.prev != nil {
		lk.prev.links[l.idx].next = lk.next
	} else {
		l.head = lk.next
	}
	if lk.next != nil {
		lk.next.links[l.idx].prev = lk.prev
	} else {
		l.tail = lk.prev
	}
	lk.prev, lk.next, lk.queued = nil, nil, false
	l.n--
}

func (l *entryList) MoveToBack(e *entry) {
	if l.tail == e {
		return
	}
	l.Remove(e)
	l.PushBack(e)
}

// Buffer is the write buffer. Not safe for concurrent use.
type Buffer struct {
	cfg   Config
	clock *sim.Clock
	sink  Sink

	entries    map[Key]*entry
	byObject   map[uint64]entryList
	writeOrder entryList // front = least recently written
	dirtyOrder entryList // front = dirty longest
	size       int64

	// entryFree recycles dropped entries; ordered is the per-object
	// scratch.
	entryFree []*entry
	ordered   []*entry

	obs                     *obs.Observer
	hostBytes, flushedBytes *obs.Counter
	overwriteAbsorbed       *obs.Counter
	deleteAbsorbed          *obs.Counter
	evictions, daemonFlush  *obs.Counter
}

// New builds an empty buffer flushing into sink.
func New(cfg Config, clock *sim.Clock, sink Sink) (*Buffer, error) {
	if cfg.BlockBytes <= 0 {
		return nil, fmt.Errorf("wbuf: non-positive block size %d", cfg.BlockBytes)
	}
	if cfg.CapacityBytes < 0 {
		return nil, fmt.Errorf("wbuf: negative capacity %d", cfg.CapacityBytes)
	}
	if sink == nil {
		return nil, fmt.Errorf("wbuf: nil sink")
	}
	o := obs.Or(cfg.Obs)
	return &Buffer{
		cfg:   cfg,
		clock: clock,
		sink:  sink,
		// A buffer of full blocks holds capacity/block entries; pre-sizing
		// for that skips the map's incremental growth.
		entries:           make(map[Key]*entry, cfg.CapacityBytes/int64(cfg.BlockBytes)),
		byObject:          make(map[uint64]entryList),
		writeOrder:        entryList{idx: lruLink},
		dirtyOrder:        entryList{idx: fifoLink},
		obs:               o,
		hostBytes:         o.Counter("host_bytes_total", obs.Labels{"layer": "wbuf"}),
		flushedBytes:      o.Counter("flushed_bytes_total", obs.Labels{"layer": "wbuf"}),
		overwriteAbsorbed: o.Counter("absorbed_bytes_total", obs.Labels{"layer": "wbuf", "reason": "overwrite"}),
		deleteAbsorbed:    o.Counter("absorbed_bytes_total", obs.Labels{"layer": "wbuf", "reason": "delete"}),
		evictions:         o.Counter("evictions_total", obs.Labels{"layer": "wbuf"}),
		daemonFlush:       o.Counter("daemon_flushes_total", obs.Labels{"layer": "wbuf"}),
	}, nil
}

// Config returns the buffer configuration.
func (b *Buffer) Config() Config { return b.cfg }

// Len reports the number of buffered blocks.
func (b *Buffer) Len() int { return len(b.entries) }

// Size reports the buffered bytes: the sum of every block's extent.
func (b *Buffer) Size() int64 { return b.size }

// Extent reports the dirty prefix length of a buffered block, and whether
// the block is buffered at all.
func (b *Buffer) Extent(key Key) (int, bool) {
	if e, ok := b.entries[key]; ok {
		return e.extent, true
	}
	return 0, false
}

// Write records a host write of n bytes at byte off of key's block. A new
// entry's extent is off+n; a buffered block's extent grows to cover the
// write, and the part of the write overlapping the old extent is credited
// as overwrite-absorbed. Blocks are modelled as prefixes, as the storage
// manager and the file system's read-modify-write keep them.
func (b *Buffer) Write(key Key, off, n int) error { return b.WriteOver(key, 0, off, n) }

// WriteOver is Write for a block whose first base bytes were read back
// from stable storage (copy-on-write): a new entry spans at least base
// bytes, so its flush rewrites that prefix along with the write. The base
// bytes are not host traffic.
func (b *Buffer) WriteOver(key Key, base, off, n int) error {
	end := off + n
	if off < 0 || n < 0 || end > b.cfg.BlockBytes || base > b.cfg.BlockBytes {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrTooLarge, off, end, b.cfg.BlockBytes)
	}
	b.hostBytes.Add(int64(n))

	if b.cfg.CapacityBytes == 0 {
		// Buffer disabled: write-through.
		return b.flushRange(key, off, n)
	}

	if e, ok := b.entries[key]; ok {
		if overlap := min(end, e.extent) - off; overlap > 0 {
			b.overwriteAbsorbed.Add(int64(overlap))
		}
		if end > e.extent {
			b.size += int64(end - e.extent)
			e.extent = end
		}
		b.writeOrder.MoveToBack(e)
		return b.ensureCapacity()
	}

	e := b.newEntry()
	e.key = key
	e.extent = max(base, end)
	e.dirtySince = b.clock.Now()
	b.writeOrder.PushBack(e)
	b.dirtyOrder.PushBack(e)
	b.entries[key] = e
	blocks := b.byObject[key.Object]
	blocks.idx = objLink
	blocks.PushBack(e)
	b.byObject[key.Object] = blocks
	b.size += int64(e.extent)
	return b.ensureCapacity()
}

// newEntry returns a reset entry, reusing a recycled one when possible.
// Fresh entries come from slabs, so filling the buffer costs one
// allocation per 64 blocks.
func (b *Buffer) newEntry() *entry {
	if n := len(b.entryFree); n > 0 {
		e := b.entryFree[n-1]
		b.entryFree = b.entryFree[:n-1]
		return e
	}
	slab := make([]entry, 64)
	for i := len(slab) - 1; i > 0; i-- {
		b.entryFree = append(b.entryFree, &slab[i])
	}
	return &slab[0]
}

// objectBlocks returns the object's buffered blocks in block order, not
// the order they were dirtied, so that an object's flushes land on the
// device in the same order whatever the write history. The result is the
// buffer's scratch, valid until the next call; it is sorted by hand
// because sort.Slice allocates per call.
func (b *Buffer) objectBlocks(object uint64) []*entry {
	ordered := b.ordered[:0]
	blocks := b.byObject[object]
	for e := blocks.Front(); e != nil; e = e.links[objLink].next {
		ordered = append(ordered, e)
	}
	for i := 1; i < len(ordered); i++ {
		for j := i; j > 0 && ordered[j].key.Block < ordered[j-1].key.Block; j-- {
			ordered[j], ordered[j-1] = ordered[j-1], ordered[j]
		}
	}
	b.ordered = ordered
	return ordered
}

// InvalidateObject drops every buffered block of the object (the file was
// deleted); those bytes never reach stable storage.
func (b *Buffer) InvalidateObject(object uint64) {
	for _, e := range b.objectBlocks(object) {
		b.deleteAbsorbed.Add(int64(e.extent))
		b.drop(e)
	}
}

// InvalidateBlock drops one buffered block (e.g. a truncated tail).
func (b *Buffer) InvalidateBlock(key Key) {
	if e, ok := b.entries[key]; ok {
		b.deleteAbsorbed.Add(int64(e.extent))
		b.drop(e)
	}
}

// Truncate shrinks a buffered block's extent to size bytes (a truncation
// landing mid-block); the cut-off dirty bytes never reach stable storage.
// Truncating to zero drops the block.
func (b *Buffer) Truncate(key Key, size int) {
	e, ok := b.entries[key]
	switch {
	case !ok || size >= e.extent:
	case size <= 0:
		b.InvalidateBlock(key)
	default:
		b.deleteAbsorbed.Add(int64(e.extent - size))
		b.size -= int64(e.extent - size)
		e.extent = size
	}
}

// Discard drops every buffered block without flushing or crediting it:
// the buffer lost power, and the dirty bytes with it.
func (b *Buffer) Discard() {
	for e := b.dirtyOrder.Front(); e != nil; e = b.dirtyOrder.Front() {
		b.drop(e)
	}
}

// drop removes the entry without flushing and recycles it. The entry is
// reset to zero state so a recycled entry can never leak a stale key,
// timestamp or list link.
func (b *Buffer) drop(e *entry) {
	delete(b.entries, e.key)
	if blocks := b.byObject[e.key.Object]; blocks.n > 1 {
		blocks.Remove(e)
		b.byObject[e.key.Object] = blocks
	} else {
		delete(b.byObject, e.key.Object)
	}
	b.writeOrder.Remove(e)
	b.dirtyOrder.Remove(e)
	b.size -= int64(e.extent)
	*e = entry{}
	b.entryFree = append(b.entryFree, e)
}

// flushRange hands bytes [off, off+n) of the block to the sink and counts
// them once they are stable.
func (b *Buffer) flushRange(key Key, off, n int) error {
	if err := b.sink.FlushBlock(key, off, n); err != nil {
		return err
	}
	b.flushedBytes.Add(int64(n))
	return nil
}

// flush writes the entry's extent to the sink and removes it. It opens no
// span: the sink's own spans are the causal record of the flush.
func (b *Buffer) flush(e *entry) error {
	if err := b.flushRange(e.key, 0, e.extent); err != nil {
		return err
	}
	b.drop(e)
	return nil
}

// Evict flushes the block the eviction policy picks. It reports false
// when nothing is buffered. The storage manager calls it when its DRAM
// page pool runs dry, before it places a new block.
func (b *Buffer) Evict() (bool, error) {
	e := b.writeOrder.Front()
	if b.cfg.Policy == EvictFIFO {
		e = b.dirtyOrder.Front()
	}
	if e == nil {
		return false, nil
	}
	b.evictions.Inc()
	return true, b.flush(e)
}

func (b *Buffer) ensureCapacity() error {
	for b.size > b.cfg.CapacityBytes {
		if ok, err := b.Evict(); !ok || err != nil {
			return err
		}
	}
	return nil
}

// Tick runs the write-back daemon: every block dirty for at least the
// write-back delay is flushed. The driving layer calls it periodically
// (via a sim event or before foreground operations).
func (b *Buffer) Tick() error {
	if b.cfg.WriteBackDelay <= 0 {
		return nil
	}
	now := b.clock.Now()
	for {
		e := b.dirtyOrder.Front()
		if e == nil || now.Sub(e.dirtySince) < b.cfg.WriteBackDelay {
			return nil
		}
		b.daemonFlush.Inc()
		if err := b.flush(e); err != nil {
			return err
		}
	}
}

// FlushObject flushes the object's buffered blocks in block order — an
// fsync of one file.
func (b *Buffer) FlushObject(object uint64) error {
	for _, e := range b.objectBlocks(object) {
		if err := b.flush(e); err != nil {
			return err
		}
	}
	return nil
}

// Sync flushes everything, oldest dirty first. The flushes are forced
// out early by the explicit sync, so their flash programs are charged to
// the group-commit-flush cause rather than the write-back default.
func (b *Buffer) Sync() error {
	defer b.obs.PushCause(obs.CauseGroupCommitFlush)()
	for {
		e := b.dirtyOrder.Front()
		if e == nil {
			return nil
		}
		if err := b.flush(e); err != nil {
			return err
		}
	}
}

// CheckInvariants verifies the buffer's indexes against each other: both
// orders and the per-object mirror hold exactly the buffered blocks, and
// Size is the sum of their extents.
func (b *Buffer) CheckInvariants() error {
	var size int64
	mirrored := 0
	for obj, blocks := range b.byObject {
		n := 0
		for e := blocks.Front(); e != nil; e = e.links[objLink].next {
			if e.key.Object != obj || b.entries[e.key] != e {
				return fmt.Errorf("wbuf: object %d lists %+v, not a buffered entry", obj, e.key)
			}
			if e.extent < 0 || e.extent > b.cfg.BlockBytes {
				return fmt.Errorf("wbuf: block %+v extent %d out of range", e.key, e.extent)
			}
			if !e.links[lruLink].queued || !e.links[fifoLink].queued {
				return fmt.Errorf("wbuf: block %+v missing from the dirty orders", e.key)
			}
			size += int64(e.extent)
			n++
		}
		if n == 0 || n != blocks.n {
			return fmt.Errorf("wbuf: object %d lists %d blocks, counts %d", obj, n, blocks.n)
		}
		mirrored += n
	}
	switch {
	case mirrored != len(b.entries):
		return fmt.Errorf("wbuf: byObject mirrors %d blocks, %d buffered", mirrored, len(b.entries))
	case b.writeOrder.n != mirrored || b.dirtyOrder.n != mirrored:
		return fmt.Errorf("wbuf: dirty orders hold %d and %d blocks, %d buffered", b.writeOrder.n, b.dirtyOrder.n, mirrored)
	case size != b.size:
		return fmt.Errorf("wbuf: extents sum to %d, size says %d", size, b.size)
	}
	return nil
}

// Stats summarises the buffer's traffic accounting.
func (b *Buffer) Stats() Stats {
	return Stats{
		HostBytes:              b.hostBytes.Value(),
		FlushedBytes:           b.flushedBytes.Value(),
		OverwriteAbsorbedBytes: b.overwriteAbsorbed.Value(),
		DeleteAbsorbedBytes:    b.deleteAbsorbed.Value(),
		Evictions:              b.evictions.Value(),
		DaemonFlushes:          b.daemonFlush.Value(),
	}
}
