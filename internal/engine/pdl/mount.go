package pdl

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"ssmobile/internal/engine"
	"ssmobile/internal/flash"
	"ssmobile/internal/sim"
)

// On-flash formats. Every unit (one page-sized region) carries a spare
// record claiming it: a base record binds the unit's full data image to
// a logical page, a delta record marks the unit as a log whose data area
// holds packed delta records. The distinct magic keeps a PDL-formatted
// card from mounting as an FTL card and vice versa.

// unitRecordBytes is the size of the spare record persisted per unit:
// a CRC-folded check word, the program sequence number, the kind and
// logical page packed into one word, and the caller tag.
const unitRecordBytes = 4 + 8 + 8 + 16

const (
	unitMagic  uint32 = 0x50444c31 // "PDL1"
	deltaMagic uint32 = 0x50444c44 // "PDLD"
)

// Unit kinds, packed into the top byte of the record's lpn word.
const (
	unitKindBase  = 0x00
	unitKindDelta = 0x01
)

const kindShift = 56

// The check word is the magic XOR-folded with a CRC of the payload, the
// same torn-program defence the FTL's OOB records use: a cut partway
// through the record leaves a prefix whose CRC cannot match.
func unitCheck(rec []byte) uint32 {
	return unitMagic ^ crc32.ChecksumIEEE(rec[4:unitRecordBytes])
}

func encodeUnitRecord(rec []byte, seq uint64, kind int, lpn int64, tag engine.Tag) {
	binary.LittleEndian.PutUint64(rec[4:], seq)
	binary.LittleEndian.PutUint64(rec[12:], uint64(kind)<<kindShift|uint64(lpn)&(1<<kindShift-1))
	copy(rec[20:], tag[:])
	binary.LittleEndian.PutUint32(rec[0:], unitCheck(rec))
}

func decodeUnitRecord(rec []byte) (seq uint64, kind int, lpn int64, tag engine.Tag, ok bool) {
	if len(rec) < unitRecordBytes || binary.LittleEndian.Uint32(rec) != unitCheck(rec) {
		return 0, 0, 0, engine.Tag{}, false
	}
	seq = binary.LittleEndian.Uint64(rec[4:])
	klpn := binary.LittleEndian.Uint64(rec[12:])
	kind = int(klpn >> kindShift)
	lpn = int64(klpn & (1<<kindShift - 1))
	copy(tag[:], rec[20:])
	return seq, kind, lpn, tag, true
}

// deltaHdrBytes is the header of one packed delta record: check word,
// sequence number, logical page, page offset and payload length. The
// check folds the CRC of header and payload together, so a torn record
// (and everything the cut prevented after it) drops off the parsed
// prefix of its unit.
const deltaHdrBytes = 4 + 8 + 4 + 2 + 2

func encodeDeltaRecord(buf []byte, seq uint64, lpn int64, off int, payload []byte) {
	binary.LittleEndian.PutUint64(buf[4:], seq)
	binary.LittleEndian.PutUint32(buf[12:], uint32(lpn))
	binary.LittleEndian.PutUint16(buf[16:], uint16(off))
	binary.LittleEndian.PutUint16(buf[18:], uint16(len(payload)))
	copy(buf[deltaHdrBytes:], payload)
	binary.LittleEndian.PutUint32(buf[0:], deltaMagic^crc32.ChecksumIEEE(buf[4:deltaHdrBytes+len(payload)]))
}

// decodeDeltaRecord parses one record at the start of buf, returning
// its total size. ok is false for a blank tail, a torn record, or a
// header whose geometry does not fit the unit.
func decodeDeltaRecord(buf []byte, pageBytes int) (seq uint64, lpn int64, off, n int, ok bool) {
	if len(buf) < deltaHdrBytes {
		return 0, 0, 0, 0, false
	}
	seq = binary.LittleEndian.Uint64(buf[4:])
	lpn = int64(binary.LittleEndian.Uint32(buf[12:]))
	off = int(binary.LittleEndian.Uint16(buf[16:]))
	n = int(binary.LittleEndian.Uint16(buf[18:]))
	if n < 1 || off+n > pageBytes || deltaHdrBytes+n > len(buf) {
		return 0, 0, 0, 0, false
	}
	if binary.LittleEndian.Uint32(buf) != deltaMagic^crc32.ChecksumIEEE(buf[4:deltaHdrBytes+n]) {
		return 0, 0, 0, 0, false
	}
	return seq, lpn, off, n, true
}

func blank(b []byte) bool {
	for _, x := range b {
		if x != 0xFF {
			return false
		}
	}
	return true
}

// Mount rebuilds a page-differential log from a device that already
// holds data — the power-failure recovery path. The scan reads every
// unit's spare record and every delta unit's data area as charged
// device work, so mount time appears in the simulation. For each
// logical page the newest base claim wins, then every delta record with
// a newer sequence number applies in sequence order; cleaning folds and
// promotions guarantee the surviving records always reconstruct either
// the pre-cut or post-cut image, never a hybrid.
func Mount(dev *flash.Device, clock *sim.Clock, cfg Config) (*Engine, error) {
	e, err := New(dev, clock, cfg)
	if err != nil {
		return nil, err
	}
	type baseClaim struct {
		ppn int64
		seq uint64
		tag engine.Tag
	}
	best := make(map[int64]baseClaim)
	var deltaUnits []int64
	rec := make([]byte, unitRecordBytes)
	var maxSeq uint64

	for ppn := int64(0); ppn < e.totalUnits; ppn++ {
		if _, err := dev.ReadSpare(ppn, rec); err != nil {
			return nil, err
		}
		seq, kind, lpn, tag, ok := decodeUnitRecord(rec)
		if !ok {
			if !blank(rec) {
				e.mountStats.CorruptRecords++
			}
			continue
		}
		if seq > maxSeq {
			maxSeq = seq
		}
		// Any record keeps its block out of the free pool; a block with
		// a log unit is a delta block.
		info := &e.blocks[e.blockOf(ppn)]
		switch kind {
		case unitKindBase:
			info.unitsUsed++
			if info.kind != blockDelta {
				info.kind = blockBase
			}
			if lpn < 0 || lpn >= e.logicalPages {
				continue // stale record beyond this geometry
			}
			if prev, dup := best[lpn]; !dup || seq > prev.seq {
				best[lpn] = baseClaim{ppn: ppn, seq: seq, tag: tag}
			}
		case unitKindDelta:
			info.unitsUsed++
			info.kind = blockDelta
			deltaUnits = append(deltaUnits, ppn)
		}
	}

	// The block pass retires worn empty blocks and re-erases dirty ones.
	hasRecords := make([]bool, e.numBlocks)
	for b := range e.blocks {
		hasRecords[b] = e.blocks[b].unitsUsed > 0
	}
	if err := e.bm.Mount(&e.mountStats, hasRecords, nil); err != nil {
		return nil, err
	}

	// Install the winning base claims.
	for lpn, c := range best {
		pm := &e.pages[lpn]
		pm.basePpn, pm.baseSeq, pm.tag = c.ppn, c.seq, c.tag
		e.rev[c.ppn] = lpn
		e.blocks[e.blockOf(c.ppn)].liveBases++
	}

	// Parse every delta unit's data area: records pack sequentially, a
	// torn or blank header ends the unit's parsed prefix.
	unitBuf := make([]byte, e.cfg.PageBytes)
	perPage := make(map[int64][]deltaRef)
	for _, ppn := range deltaUnits {
		if _, err := dev.Read(e.unitAddr(ppn), unitBuf); err != nil {
			return nil, err
		}
		off := 0
		for off+deltaHdrBytes <= e.cfg.PageBytes {
			seq, lpn, pOff, n, ok := decodeDeltaRecord(unitBuf[off:], e.cfg.PageBytes)
			if !ok {
				if !blank(unitBuf[off:]) {
					e.mountStats.CorruptRecords++
				}
				break
			}
			if seq > maxSeq {
				maxSeq = seq
			}
			size := deltaHdrBytes + n
			e.blocks[e.blockOf(ppn)].appended += int64(size)
			if lpn >= 0 && lpn < e.logicalPages {
				perPage[lpn] = append(perPage[lpn], deltaRef{
					seq: seq, addr: e.unitAddr(ppn) + int64(off), off: pOff, n: n, rec: size,
				})
			}
			off += size
		}
	}

	// Attach each page's surviving chain: deltas newer than the winning
	// base, in sequence order.
	lpns := make([]int64, 0, len(perPage))
	for lpn := range perPage {
		lpns = append(lpns, lpn)
	}
	sort.Slice(lpns, func(i, j int) bool { return lpns[i] < lpns[j] })
	for _, lpn := range lpns {
		pm := &e.pages[lpn]
		if pm.basePpn == -1 {
			continue // deltas whose base is gone are unreachable garbage
		}
		refs := perPage[lpn]
		sort.Slice(refs, func(i, j int) bool { return refs[i].seq < refs[j].seq })
		for _, d := range refs {
			if d.seq <= pm.baseSeq {
				continue
			}
			pm.chain = append(pm.chain, d)
			b := e.blockOfAddr(d.addr)
			e.blocks[b].liveDeltas++
			e.blocks[b].liveDeltaBytes += int64(d.rec)
		}
	}

	e.writeSeq = maxSeq
	if err := e.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("pdl: mount left inconsistent state: %w", err)
	}
	return e, nil
}
