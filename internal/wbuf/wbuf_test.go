package wbuf

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"ssmobile/internal/sim"
)

// countingSink records flushed blocks: the end of each block's last flush.
type countingSink struct {
	blocks map[Key]int
	bytes  int64
	calls  int
	err    error
}

func newCountingSink() *countingSink { return &countingSink{blocks: make(map[Key]int)} }

func (s *countingSink) FlushBlock(key Key, off, n int) error {
	if s.err != nil {
		return s.err
	}
	s.blocks[key] = off + n
	s.bytes += int64(n)
	s.calls++
	return nil
}

func newBuffer(t *testing.T, capacity int64, delay sim.Duration, policy EvictPolicy) (*Buffer, *sim.Clock, *countingSink) {
	t.Helper()
	clock := sim.NewClock()
	sink := newCountingSink()
	b, err := New(Config{CapacityBytes: capacity, BlockBytes: 4096, WriteBackDelay: delay, Policy: policy}, clock, sink)
	if err != nil {
		t.Fatal(err)
	}
	return b, clock, sink
}

func TestNewValidation(t *testing.T) {
	clock := sim.NewClock()
	if _, err := New(Config{BlockBytes: 0}, clock, newCountingSink()); err == nil {
		t.Error("zero block size accepted")
	}
	if _, err := New(Config{BlockBytes: 4096, CapacityBytes: -1}, clock, newCountingSink()); err == nil {
		t.Error("negative capacity accepted")
	}
	if _, err := New(Config{BlockBytes: 4096}, clock, nil); err == nil {
		t.Error("nil sink accepted")
	}
}

func TestPolicyString(t *testing.T) {
	if EvictLRW.String() != "lrw" || EvictFIFO.String() != "fifo" {
		t.Error("policy names wrong")
	}
}

func TestWriteBuffered(t *testing.T) {
	b, _, sink := newBuffer(t, 1<<20, 0, EvictLRW)
	key := Key{Object: 1, Block: 0}
	if err := b.Write(key, 0, 5); err != nil {
		t.Fatal(err)
	}
	if sink.calls != 0 {
		t.Fatal("buffered write reached the sink")
	}
	if ext, ok := b.Extent(key); !ok || ext != 5 {
		t.Fatalf("Extent = %d, %v", ext, ok)
	}
	if b.Len() != 1 || b.Size() != 5 {
		t.Fatalf("Len/Size = %d/%d", b.Len(), b.Size())
	}
}

func TestZeroCapacityWritesThrough(t *testing.T) {
	b, _, sink := newBuffer(t, 0, 0, EvictLRW)
	if err := b.Write(Key{1, 0}, 10, 3); err != nil {
		t.Fatal(err)
	}
	if sink.calls != 1 || sink.bytes != 3 || sink.blocks[Key{1, 0}] != 13 {
		t.Fatal("write-through did not pass the write to the sink as is")
	}
	if s := b.Stats(); s.Reduction() != 0 {
		t.Fatalf("reduction %v with no buffer", s.Reduction())
	}
}

func TestOverwriteAbsorption(t *testing.T) {
	b, _, sink := newBuffer(t, 1<<20, 0, EvictLRW)
	key := Key{Object: 1, Block: 0}
	for i := 0; i < 10; i++ {
		if err := b.Write(key, 0, 4096); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	s := b.Stats()
	if s.HostBytes != 10*4096 {
		t.Fatalf("host bytes %d", s.HostBytes)
	}
	if s.FlushedBytes != 4096 || sink.bytes != 4096 {
		t.Fatalf("flushed %d, want one block", s.FlushedBytes)
	}
	if s.OverwriteAbsorbedBytes != 9*4096 {
		t.Fatalf("absorbed %d", s.OverwriteAbsorbedBytes)
	}
	if got := s.Reduction(); got < 0.89 || got > 0.91 {
		t.Fatalf("reduction %.2f, want 0.90", got)
	}
}

// Regression: the absorbed traffic of an overwrite is the incoming write
// size, not the size of the buffered version it replaces — a small
// overwrite landing on a large buffered block used to inflate the
// paper's 40–50% reduction metric by the large block's size. Nor does
// the small overwrite shrink the block: its flush still carries all 100
// bytes, so host = flushed + absorbed.
func TestOverwriteAbsorptionCreditsIncomingBytes(t *testing.T) {
	b, _, sink := newBuffer(t, 1<<20, 0, EvictLRW)
	key := Key{Object: 1, Block: 0}
	if err := b.Write(key, 0, 100); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(key, 0, 40); err != nil {
		t.Fatal(err)
	}
	s := b.Stats()
	if s.OverwriteAbsorbedBytes != 40 {
		t.Fatalf("absorbed %d, want the 40 incoming bytes", s.OverwriteAbsorbedBytes)
	}
	if s.HostBytes != 140 {
		t.Fatalf("host bytes %d", s.HostBytes)
	}
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	if s := b.Stats(); s.FlushedBytes != 100 || sink.blocks[key] != 100 {
		t.Fatalf("flushed %d bytes (block end %d), want the whole 100-byte block", s.FlushedBytes, sink.blocks[key])
	}
}

// A write grows the block as a prefix: an append inside a block is new
// data, not an overwrite, and only the overlap with the buffered extent
// is absorbed.
func TestWriteGrowsPrefix(t *testing.T) {
	b, _, sink := newBuffer(t, 1<<20, 0, EvictLRW)
	key := Key{Object: 1, Block: 0}
	for _, w := range []struct{ off, n int }{{0, 100}, {100, 100}, {50, 100}, {0, 10}} {
		if err := b.Write(key, w.off, w.n); err != nil {
			t.Fatal(err)
		}
	}
	if ext, _ := b.Extent(key); ext != 200 {
		t.Fatalf("extent %d, want 200", ext)
	}
	if s := b.Stats(); s.OverwriteAbsorbedBytes != 110 {
		t.Fatalf("absorbed %d, want 100 (the [50,150) rewrite) + 10", s.OverwriteAbsorbedBytes)
	}
	// A first write past the start of an unbuffered block flushes the
	// prefix it implies.
	if err := b.Write(Key{Object: 2}, 300, 50); err != nil {
		t.Fatal(err)
	}
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	if sink.blocks[key] != 200 || sink.blocks[Key{Object: 2}] != 350 {
		t.Fatalf("flushed block ends %v", sink.blocks)
	}
}

// WriteOver is copy-on-write: the stable prefix rides along with the
// write into the buffer and back out, without counting as host traffic.
func TestWriteOverSpansStablePrefix(t *testing.T) {
	b, _, sink := newBuffer(t, 1<<20, 0, EvictLRW)
	key := Key{Object: 1, Block: 0}
	if err := b.WriteOver(key, 4096, 0, 100); err != nil {
		t.Fatal(err)
	}
	if ext, _ := b.Extent(key); ext != 4096 {
		t.Fatalf("extent %d, want the 4096-byte stable prefix", ext)
	}
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	s := b.Stats()
	if s.HostBytes != 100 || s.OverwriteAbsorbedBytes != 0 || s.FlushedBytes != 4096 || sink.blocks[key] != 4096 {
		t.Fatalf("stats %+v, sink %v", s, sink.blocks)
	}
}

func TestDeleteAbsorption(t *testing.T) {
	b, _, sink := newBuffer(t, 1<<20, 0, EvictLRW)
	for blk := int64(0); blk < 4; blk++ {
		if err := b.Write(Key{Object: 7, Block: blk}, 0, 4096); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Write(Key{Object: 8, Block: 0}, 0, 100); err != nil {
		t.Fatal(err)
	}
	b.InvalidateObject(7)
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	if sink.bytes != 100 {
		t.Fatalf("sink got %d bytes, want only the surviving file's 100", sink.bytes)
	}
	if s := b.Stats(); s.DeleteAbsorbedBytes != 4*4096 {
		t.Fatalf("delete absorbed %d", s.DeleteAbsorbedBytes)
	}
}

func TestInvalidateBlock(t *testing.T) {
	b, _, sink := newBuffer(t, 1<<20, 0, EvictLRW)
	if err := b.Write(Key{1, 0}, 0, 4); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(Key{1, 1}, 0, 5); err != nil {
		t.Fatal(err)
	}
	b.InvalidateBlock(Key{1, 1})
	if _, ok := b.Extent(Key{1, 1}); ok {
		t.Fatal("invalidated block still buffered")
	}
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, flushed := sink.blocks[Key{1, 1}]; sink.blocks[Key{1, 0}] != 4 || flushed {
		t.Fatal("wrong blocks flushed")
	}
	if s := b.Stats(); s.DeleteAbsorbedBytes != 5 {
		t.Fatalf("delete absorbed %d", s.DeleteAbsorbedBytes)
	}
}

// Truncation cuts the dirty tail out of the buffer; Discard (power loss)
// drops everything without crediting it as absorbed.
func TestTruncateAndDiscard(t *testing.T) {
	b, _, sink := newBuffer(t, 1<<20, 0, EvictLRW)
	key := Key{Object: 1, Block: 0}
	if err := b.Write(key, 0, 4096); err != nil {
		t.Fatal(err)
	}
	b.Truncate(key, 5000) // growing truncate is a no-op
	b.Truncate(key, 100)
	if ext, _ := b.Extent(key); ext != 100 || b.Size() != 100 {
		t.Fatalf("extent %d size %d after truncate", ext, b.Size())
	}
	if s := b.Stats(); s.DeleteAbsorbedBytes != 3996 {
		t.Fatalf("delete absorbed %d, want the 3996 cut bytes", s.DeleteAbsorbedBytes)
	}
	if err := b.Write(Key{Object: 2}, 0, 10); err != nil {
		t.Fatal(err)
	}
	b.Discard()
	if b.Len() != 0 || b.Size() != 0 || sink.calls != 0 {
		t.Fatalf("after Discard: Len=%d Size=%d flushes=%d", b.Len(), b.Size(), sink.calls)
	}
	if s := b.Stats(); s.DeleteAbsorbedBytes != 3996 || s.FlushedBytes != 0 {
		t.Fatalf("Discard credited bytes: %+v", s)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// FlushObject flushes one object's blocks in block order and leaves the
// rest buffered.
func TestFlushObject(t *testing.T) {
	var order []int64
	b, err := New(Config{CapacityBytes: 1 << 20, BlockBytes: 4096}, sim.NewClock(),
		SinkFunc(func(key Key, _, _ int) error { order = append(order, key.Block); return nil }))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []Key{{1, 3}, {2, 0}, {1, 0}, {1, 2}} {
		if err := b.Write(k, 0, 10); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.FlushObject(1); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("flush order %v, want blocks 0 2 3", order)
	}
	if _, ok := b.Extent(Key{2, 0}); !ok || b.Len() != 1 {
		t.Fatal("another object's block was flushed")
	}
}

func TestCapacityEvictionLRW(t *testing.T) {
	// Capacity of two blocks; writing three distinct blocks evicts the
	// least recently written.
	b, _, sink := newBuffer(t, 2*4096, 0, EvictLRW)
	for blk := int64(0); blk < 2; blk++ {
		if err := b.Write(Key{1, blk}, 0, 4096); err != nil {
			t.Fatal(err)
		}
	}
	// Touch block 0 so block 1 becomes least recently written.
	if err := b.Write(Key{1, 0}, 0, 4096); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(Key{1, 2}, 0, 4096); err != nil {
		t.Fatal(err)
	}
	if _, flushed := sink.blocks[Key{1, 1}]; !flushed {
		t.Fatal("LRW should have evicted block 1")
	}
	if _, stillIn := b.Extent(Key{1, 0}); !stillIn {
		t.Fatal("recently written block evicted")
	}
	if b.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", b.Stats().Evictions)
	}
}

func TestCapacityEvictionFIFO(t *testing.T) {
	b, _, sink := newBuffer(t, 2*4096, 0, EvictFIFO)
	for blk := int64(0); blk < 2; blk++ {
		if err := b.Write(Key{1, blk}, 0, 4096); err != nil {
			t.Fatal(err)
		}
	}
	// Touching block 0 does not save it under FIFO: it has been dirty
	// longest.
	if err := b.Write(Key{1, 0}, 0, 4096); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(Key{1, 2}, 0, 4096); err != nil {
		t.Fatal(err)
	}
	if _, flushed := sink.blocks[Key{1, 0}]; !flushed {
		t.Fatal("FIFO should have evicted the oldest-dirty block 0")
	}
}

// Evict is the storage manager's entry point when its page pool runs
// dry: it flushes the policy's victim, and reports an empty buffer.
func TestEvict(t *testing.T) {
	b, _, sink := newBuffer(t, 1<<20, 0, EvictLRW)
	if ok, err := b.Evict(); ok || err != nil {
		t.Fatalf("Evict on an empty buffer = %v, %v", ok, err)
	}
	for blk := int64(0); blk < 2; blk++ {
		if err := b.Write(Key{1, blk}, 0, 10); err != nil {
			t.Fatal(err)
		}
	}
	if ok, err := b.Evict(); !ok || err != nil {
		t.Fatalf("Evict = %v, %v", ok, err)
	}
	if _, flushed := sink.blocks[Key{1, 0}]; !flushed || b.Len() != 1 || b.Stats().Evictions != 1 {
		t.Fatal("Evict did not flush the least recently written block")
	}
}

func TestDaemonFlushByAge(t *testing.T) {
	b, clock, sink := newBuffer(t, 1<<20, 30*sim.Second, EvictLRW)
	if err := b.Write(Key{1, 0}, 0, 3); err != nil {
		t.Fatal(err)
	}
	clock.Advance(20 * sim.Second)
	if err := b.Write(Key{1, 1}, 0, 3); err != nil {
		t.Fatal(err)
	}
	clock.Advance(15 * sim.Second) // first block now 35s old, second 15s
	if err := b.Tick(); err != nil {
		t.Fatal(err)
	}
	if _, ok := sink.blocks[Key{1, 0}]; !ok {
		t.Fatal("aged block not flushed by daemon")
	}
	if _, ok := sink.blocks[Key{1, 1}]; ok {
		t.Fatal("young block flushed early")
	}
	if b.Stats().DaemonFlushes != 1 {
		t.Fatalf("daemon flushes = %d", b.Stats().DaemonFlushes)
	}
}

func TestOverwriteDoesNotResetDirtyAge(t *testing.T) {
	// The 30-second promise is from first dirtying, or data could dodge
	// stable storage forever by being rewritten every 29s.
	b, clock, sink := newBuffer(t, 1<<20, 30*sim.Second, EvictLRW)
	if err := b.Write(Key{1, 0}, 0, 2); err != nil {
		t.Fatal(err)
	}
	clock.Advance(25 * sim.Second)
	if err := b.Write(Key{1, 0}, 0, 3); err != nil {
		t.Fatal(err)
	}
	clock.Advance(6 * sim.Second)
	if err := b.Tick(); err != nil {
		t.Fatal(err)
	}
	if got := sink.blocks[Key{1, 0}]; got != 3 {
		t.Fatalf("daemon should flush the 3-byte rewrite at 31s from first dirty; got block end %d", got)
	}
}

func TestTickWithoutDelayIsNoop(t *testing.T) {
	b, clock, sink := newBuffer(t, 1<<20, 0, EvictLRW)
	if err := b.Write(Key{1, 0}, 0, 1); err != nil {
		t.Fatal(err)
	}
	clock.Advance(sim.Hour)
	if err := b.Tick(); err != nil {
		t.Fatal(err)
	}
	if sink.calls != 0 {
		t.Fatal("Tick flushed with zero delay configured")
	}
}

func TestTooLargeRejected(t *testing.T) {
	b, _, _ := newBuffer(t, 1<<20, 0, EvictLRW)
	if err := b.Write(Key{1, 0}, 0, 8192); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized block: %v", err)
	}
	if err := b.Write(Key{1, 0}, 4000, 200); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("write past the block end: %v", err)
	}
}

func TestSinkErrorPropagates(t *testing.T) {
	clock := sim.NewClock()
	sink := newCountingSink()
	sink.err = errors.New("boom")
	b, err := New(Config{CapacityBytes: 4096, BlockBytes: 4096}, clock, sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Write(Key{1, 0}, 0, 4096); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(Key{1, 1}, 0, 4096); err == nil {
		t.Fatal("eviction flush error swallowed")
	}
	if s := b.Stats(); s.FlushedBytes != 0 {
		t.Fatalf("a failed flush counted %d flushed bytes", s.FlushedBytes)
	}
}

func TestSyncEmptiesBuffer(t *testing.T) {
	b, _, _ := newBuffer(t, 1<<20, 0, EvictLRW)
	for i := int64(0); i < 10; i++ {
		if err := b.Write(Key{uint64(i % 3), i}, 0, 100); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 || b.Size() != 0 {
		t.Fatalf("after Sync: Len=%d Size=%d", b.Len(), b.Size())
	}
}

// Property: buffer + sink together always hold each block's whole written
// prefix — the buffered extent, or else the furthest the sink has been
// given — and accounting balances: host = flushed + absorbed +
// still-buffered.
func TestBufferModelProperty(t *testing.T) {
	type op struct {
		Obj    uint8
		Blk    uint8
		Len    uint8
		Delete bool
	}
	f := func(ops []op, capBlocks uint8) bool {
		clock := sim.NewClock()
		sink := newCountingSink()
		b, err := New(Config{
			CapacityBytes: (int64(capBlocks%8) + 1) * 64,
			BlockBytes:    64,
		}, clock, sink)
		if err != nil {
			return false
		}
		model := map[Key]int{}  // each live block's written prefix
		stable := map[Key]int{} // furthest end the sink has been given
		for _, o := range ops {
			clock.Advance(sim.Millisecond)
			key := Key{Object: uint64(o.Obj % 4), Block: int64(o.Blk % 4)}
			if o.Delete {
				b.InvalidateObject(key.Object)
				for k := range model {
					if k.Object == key.Object {
						delete(model, k)
						delete(stable, k)
						delete(sink.blocks, k)
					}
				}
				continue
			}
			n := int(o.Len%64) + 1
			if err := b.Write(key, 0, n); err != nil {
				return false
			}
			model[key] = max(model[key], n)
			for k, end := range sink.blocks {
				stable[k] = max(stable[k], end)
			}
		}
		for k, want := range model {
			ext, _ := b.Extent(k)
			if max(ext, stable[k]) != want {
				return false
			}
		}
		s := b.Stats()
		accounted := s.FlushedBytes + s.OverwriteAbsorbedBytes + s.DeleteAbsorbedBytes + b.Size()
		return accounted == s.HostBytes && b.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Conservation: for block-prefix writes every host byte ends up flushed
// or absorbed — host = flushed + overwrite-absorbed + delete-absorbed
// once Sync has emptied the buffer — across random writes, deletes,
// truncations, daemon ticks, evictions and syncs under both policies.
func TestConservationProperty(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clock := sim.NewClock()
		b, err := New(Config{
			CapacityBytes:  int64(rng.Intn(8)+1) * 64,
			BlockBytes:     64,
			WriteBackDelay: sim.Duration(rng.Intn(3)) * 10 * sim.Millisecond,
			Policy:         EvictPolicy(rng.Intn(2)),
		}, clock, newCountingSink())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			key := Key{Object: uint64(rng.Intn(4)), Block: int64(rng.Intn(4))}
			switch r := rng.Intn(20); {
			case r < 12:
				if err := b.Write(key, 0, rng.Intn(64)+1); err != nil {
					t.Fatal(err)
				}
			case r < 14:
				b.InvalidateObject(key.Object)
			case r < 15:
				b.InvalidateBlock(key)
			case r < 16:
				b.Truncate(key, rng.Intn(64))
			case r < 19:
				clock.Advance(sim.Duration(rng.Intn(10)) * sim.Millisecond)
				if err := b.Tick(); err != nil {
					t.Fatal(err)
				}
			default:
				if err := b.Sync(); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.CheckInvariants(); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, i, err)
			}
		}
		if err := b.Sync(); err != nil {
			t.Fatal(err)
		}
		s := b.Stats()
		if got := s.FlushedBytes + s.OverwriteAbsorbedBytes + s.DeleteAbsorbedBytes; got != s.HostBytes || b.Size() != 0 {
			t.Fatalf("seed %d: flushed+absorbed = %d, host = %d (%+v)", seed, got, s.HostBytes, s)
		}
	}
}
