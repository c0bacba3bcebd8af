package ftl

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"ssmobile/internal/engine"
	"ssmobile/internal/engine/blockmgr"
	"ssmobile/internal/flash"
	"ssmobile/internal/sim"
)

// Tag is opaque caller metadata attached to a logical page (typically an
// object id and block index). With mapping persistence on, it is stored
// in the page's out-of-band record and recovered by Mount. It aliases
// the storage-engine tag type so *FTL's tagged methods satisfy the
// engine interface directly, without conversion shims on the hot path.
type Tag = engine.Tag

// OOBRecordBytes is the size of the out-of-band record persisted per
// page: a magic word, the program sequence number, the logical page
// number, and the caller tag.
const OOBRecordBytes = 4 + 8 + 8 + 16

const oobMagic uint32 = 0x53534d4c // "SSML"

// The record's first word is the magic XOR-folded with a CRC of the
// payload, so the record self-checks without growing (a bigger record
// would change every spare-program latency). A torn spare program —
// power cut between the data page and the tail of its record — leaves a
// prefix whose CRC cannot match, where a bare magic word (entirely
// inside the surviving prefix) would have validated garbage: the torn
// record still carries a plausible seq and lpn, would win the
// per-logical-page sequence battle at Mount, and resurrect a half-written
// tag over committed data.
func oobCheck(rec []byte) uint32 {
	return oobMagic ^ crc32.ChecksumIEEE(rec[4:OOBRecordBytes])
}

func encodeOOB(seq uint64, lpn int64, tag Tag) []byte {
	rec := make([]byte, OOBRecordBytes)
	encodeOOBInto(rec, seq, lpn, tag)
	return rec
}

// encodeOOBInto writes the record into rec (len ≥ OOBRecordBytes); the
// program hot path passes a reusable scratch so per-page spare programs
// never allocate.
func encodeOOBInto(rec []byte, seq uint64, lpn int64, tag Tag) {
	binary.LittleEndian.PutUint64(rec[4:], seq)
	binary.LittleEndian.PutUint64(rec[12:], uint64(lpn))
	copy(rec[20:], tag[:])
	binary.LittleEndian.PutUint32(rec[0:], oobCheck(rec))
}

func decodeOOB(rec []byte) (seq uint64, lpn int64, tag Tag, ok bool) {
	if len(rec) < OOBRecordBytes || binary.LittleEndian.Uint32(rec) != oobCheck(rec) {
		return 0, 0, Tag{}, false
	}
	seq = binary.LittleEndian.Uint64(rec[4:])
	lpn = int64(binary.LittleEndian.Uint64(rec[12:]))
	copy(tag[:], rec[20:])
	return seq, lpn, tag, true
}

// MountStats reports what a Mount scan found beyond the live mapping —
// the wreckage a power cut left behind. It aliases the storage-engine
// type, so *FTL satisfies the engine interface without a translation.
type MountStats = engine.MountStats

// MountStats returns what the Mount scan found; zero for an FTL built
// with New.
func (f *FTL) MountStats() MountStats { return f.mountStats }

// checkOOBSupport verifies the device can carry per-page records.
func (f *FTL) checkOOBSupport() error {
	if f.cfg.Policy == PolicyDirect {
		return fmt.Errorf("ftl: mapping persistence not supported with the direct policy")
	}
	dc := f.dev.Config()
	if dc.SpareBytes < OOBRecordBytes {
		return fmt.Errorf("ftl: device spare of %d bytes below the %d-byte OOB record", dc.SpareBytes, OOBRecordBytes)
	}
	if dc.SpareUnitBytes != f.cfg.PageBytes {
		return fmt.Errorf("ftl: device spare unit %d != page size %d", dc.SpareUnitBytes, f.cfg.PageBytes)
	}
	return nil
}

// Mount rebuilds a translation layer from a device that already holds
// data, by scanning every page's out-of-band record — the power-failure
// recovery path. The configuration must have PersistMapping set and match
// the one the data was written with (page size, policy family). The scan
// is charged real device reads, so mount time appears in the simulation.
//
// Pages whose records are superseded by a newer sequence number for the
// same logical page are treated as dead, as are unprogrammed pages inside
// partially written blocks (interrupted log heads). The block manager's
// mount pass retires worn blocks that hold no record and re-erases dirty
// empty ones.
func Mount(dev *flash.Device, clock *sim.Clock, cfg Config) (*FTL, error) {
	if !cfg.PersistMapping {
		return nil, fmt.Errorf("ftl: Mount requires PersistMapping")
	}
	f, err := New(dev, clock, cfg)
	if err != nil {
		return nil, err
	}
	type claim struct {
		ppn int64
		seq uint64
		tag Tag
	}
	best := make(map[int64]claim)
	hasRecords := make([]bool, f.numBlocks)
	rec := make([]byte, OOBRecordBytes)
	var maxSeq uint64

	for ppn := int64(0); ppn < f.totalPages; ppn++ {
		if _, err := dev.ReadSpare(ppn, rec); err != nil {
			return nil, err
		}
		seq, lpn, tag, ok := decodeOOB(rec)
		if !ok {
			for _, b := range rec {
				if b != 0xFF {
					// Non-blank but not self-consistent: a torn OOB
					// program or trembling-erase residue.
					f.mountStats.CorruptRecords++
					break
				}
			}
			continue
		}
		hasRecords[f.blockOfPage(ppn)] = true
		if seq > maxSeq {
			maxSeq = seq
		}
		if lpn < 0 || lpn >= f.logicalPages {
			continue // stale record for a page beyond this geometry
		}
		if prev, dup := best[lpn]; !dup || seq > prev.seq {
			best[lpn] = claim{ppn: ppn, seq: seq, tag: tag}
		}
	}
	f.writeSeq = maxSeq

	// Classify blocks and pages; only the winning (newest) record for
	// each logical page contributes its tag.
	winners := make(map[int64]int64, len(best)) // ppn → lpn
	for lpn, c := range best {
		winners[c.ppn] = lpn
		f.tags[lpn] = c.tag
		f.pageSeq[lpn] = c.seq
	}
	// A block leaves its bank pool the moment the pass takes it, so the
	// pools' swap-remove order, which wear-aware allocation breaks ties
	// on, is the one the pass's block order has always produced.
	removeFromPool := func(b int) { f.freeByBank[dev.BankOf(b)].remove(b) }
	if err := f.bm.Mount(&f.mountStats, hasRecords, removeFromPool); err != nil {
		return nil, err
	}
	for b := 0; b < f.numBlocks; b++ {
		if f.bm.State(b) != blockmgr.Closed {
			continue
		}
		base := int64(b) * int64(f.pagesPerBlock)
		for i := 0; i < f.pagesPerBlock; i++ {
			ppn := base + int64(i)
			if lpn, win := winners[ppn]; win {
				f.state[ppn] = pageValid
				f.reverse[ppn] = lpn
				f.mapping[lpn] = ppn
				f.blocks[b].valid++
			} else {
				// Superseded record, stale record, or an unprogrammed
				// page in an interrupted log head: all reclaimable.
				f.state[ppn] = pageDead
				f.blocks[b].dead++
			}
		}
		f.blocks[b].allocSeq = f.nextAllocSeq()
	}
	f.rebuildIndexes()
	return f, nil
}

// rebuildIndexes recomputes the victim and wear indexes and the running
// max erase count from the block states Mount reconstructed. The device
// carries erase counts from its previous life, so the maximum must be
// rescanned rather than assumed zero.
func (f *FTL) rebuildIndexes() {
	f.maxErase = 0
	for b := 0; b < f.numBlocks; b++ {
		if c := f.dev.EraseCount(b); c > f.maxErase {
			f.maxErase = c
		}
	}
	if f.victims != nil {
		f.victims = newVictimIndex(f.cfg.Policy, f.pagesPerBlock)
	}
	if f.wear != nil {
		f.wear = &lazyHeap{}
	}
	for b := 0; b < f.numBlocks; b++ {
		if f.bm.State(b) != blockmgr.Closed {
			continue
		}
		if f.wear != nil {
			f.wear.push(lazyEntry{k1: f.dev.EraseCount(b), block: b})
		}
		f.noteEligible(b)
	}
}

func (f *FTL) nextAllocSeq() int64 {
	f.allocSeq++
	return f.allocSeq
}
