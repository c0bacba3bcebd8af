package storman

import (
	"fmt"
	"sort"

	"ssmobile/internal/wbuf"
)

// Keys lists every block in the placement table in (object, block)
// order; recovery harnesses walk it to compare pre- and post-crash state.
func (m *Manager) Keys() []Key {
	out := make([]Key, 0, len(m.table))
	for key := range m.table {
		out = append(out, key)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Object != out[j].Object {
			return out[i].Object < out[j].Object
		}
		return out[i].Block < out[j].Block
	})
	return out
}

// CheckInvariants cross-checks the placement table against its own
// indexes and against the translation layer underneath: the byObject
// mirror matches the table, DRAM pages and flash logical pages are each
// owned at most once and never double-listed as free, every
// flash-resident block is actually mapped with the tag its key encodes,
// and the write buffer holds exactly the DRAM-resident blocks, each with
// its size as the extent.
// Crash-point enumeration calls it after every recovery.
func (m *Manager) CheckInvariants() error {
	mirrored := 0
	for obj, blocks := range m.byObject {
		for blk, loc := range blocks {
			if loc.key.Object != obj || loc.key.Block != blk {
				return fmt.Errorf("byObject[%d][%d] holds key %+v", obj, blk, loc.key)
			}
			if m.table[loc.key] != loc {
				return fmt.Errorf("byObject entry %+v not in table", loc.key)
			}
			mirrored++
		}
	}
	if mirrored != len(m.table) {
		return fmt.Errorf("byObject mirrors %d entries, table has %d", mirrored, len(m.table))
	}

	dramOwner := make(map[int]Key)
	lpnOwner := make(map[int64]Key)
	for key, loc := range m.table {
		if loc.key != key {
			return fmt.Errorf("table[%+v] holds key %+v", key, loc.key)
		}
		if loc.size < 0 || loc.size > m.cfg.BlockBytes {
			return fmt.Errorf("block %+v size %d out of range", key, loc.size)
		}
		if loc.flashSize < 0 || loc.flashSize > m.cfg.BlockBytes {
			return fmt.Errorf("block %+v flash size %d out of range", key, loc.flashSize)
		}
		if !loc.inDRAM() && loc.lpn < 0 {
			return fmt.Errorf("block %+v lives nowhere", key)
		}
		if loc.inDRAM() {
			if loc.dramPage >= m.totalPages {
				return fmt.Errorf("block %+v DRAM page %d of %d", key, loc.dramPage, m.totalPages)
			}
			if prev, dup := dramOwner[loc.dramPage]; dup {
				return fmt.Errorf("DRAM page %d owned by both %+v and %+v", loc.dramPage, prev, key)
			}
			dramOwner[loc.dramPage] = key
		}
		if ext, buffered := m.buf.Extent(wbuf.Key(key)); buffered != loc.inDRAM() {
			return fmt.Errorf("block %+v in DRAM %v but buffered %v", key, loc.inDRAM(), buffered)
		} else if buffered && ext != loc.size {
			return fmt.Errorf("block %+v buffered extent %d, size %d", key, ext, loc.size)
		}
		if loc.lpn >= 0 {
			if prev, dup := lpnOwner[loc.lpn]; dup {
				return fmt.Errorf("flash page %d owned by both %+v and %+v", loc.lpn, prev, key)
			}
			lpnOwner[loc.lpn] = key
			if !m.fl.Mapped(loc.lpn) {
				return fmt.Errorf("block %+v claims unmapped flash page %d", key, loc.lpn)
			}
			// Tags exist only when the translation layer persists them.
			if m.fl.PersistsMapping() && m.fl.TagOf(loc.lpn) != encodeTag(key) {
				return fmt.Errorf("flash page %d tagged %x, block %+v expects %x",
					loc.lpn, m.fl.TagOf(loc.lpn), key, encodeTag(key))
			}
		} else if loc.flashSize != 0 {
			return fmt.Errorf("block %+v has flash size %d but no flash page", key, loc.flashSize)
		}
	}

	seenDRAM := make(map[int]bool)
	for _, p := range m.freeDRAM {
		if p < 0 || p >= m.totalPages {
			return fmt.Errorf("free DRAM page %d of %d", p, m.totalPages)
		}
		if seenDRAM[p] {
			return fmt.Errorf("DRAM page %d listed free twice", p)
		}
		seenDRAM[p] = true
		if owner, used := dramOwner[p]; used {
			return fmt.Errorf("DRAM page %d free but owned by %+v", p, owner)
		}
	}
	if len(m.freeDRAM)+len(dramOwner) != m.totalPages {
		return fmt.Errorf("%d free + %d owned DRAM pages != %d total",
			len(m.freeDRAM), len(dramOwner), m.totalPages)
	}

	seenLPN := make(map[int64]bool)
	for _, lpn := range m.freeLPN {
		if seenLPN[lpn] {
			return fmt.Errorf("flash page %d listed free twice", lpn)
		}
		seenLPN[lpn] = true
		if owner, used := lpnOwner[lpn]; used {
			return fmt.Errorf("flash page %d free but owned by %+v", lpn, owner)
		}
	}

	if m.buf.Len() != len(dramOwner) {
		return fmt.Errorf("write buffer holds %d blocks, %d are DRAM-resident", m.buf.Len(), len(dramOwner))
	}
	return m.buf.CheckInvariants()
}
