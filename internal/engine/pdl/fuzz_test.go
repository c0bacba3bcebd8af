package pdl

import (
	"bytes"
	"testing"

	"ssmobile/internal/engine"
)

// FuzzDecodeUnitRecord feeds arbitrary spare-area bytes to the unit
// record decoder Mount runs on every unit: it must never panic, and a
// record it accepts must re-encode to exactly the bytes it came from.
// The seed corpus under testdata/fuzz holds valid base and delta-unit
// records, torn prefixes, blank spares and bit flips.
func FuzzDecodeUnitRecord(f *testing.F) {
	rec := make([]byte, unitRecordBytes)
	encodeUnitRecord(rec, 9, unitKindBase, 5, engine.Tag{7})
	f.Add(rec)
	f.Fuzz(func(t *testing.T, rec []byte) {
		seq, kind, lpn, tag, ok := decodeUnitRecord(rec)
		if !ok {
			return
		}
		re := make([]byte, unitRecordBytes)
		encodeUnitRecord(re, seq, kind, lpn, tag)
		if !bytes.Equal(re, rec[:unitRecordBytes]) {
			t.Fatalf("decoded (seq %d, kind %d, lpn %d) re-encodes to %x, want %x", seq, kind, lpn, re, rec[:unitRecordBytes])
		}
	})
}

// FuzzDecodeDeltaRecord feeds arbitrary log-unit bytes to the delta
// record decoder Mount runs over every delta unit's data area: it must
// never panic, a record it accepts must patch a range inside the page,
// and it must re-encode to exactly the bytes it came from.
func FuzzDecodeDeltaRecord(f *testing.F) {
	payload := []byte("patch")
	rec := make([]byte, deltaHdrBytes+len(payload))
	encodeDeltaRecord(rec, 11, 3, 100, payload)
	f.Add(rec, uint16(1024))
	f.Fuzz(func(t *testing.T, buf []byte, pageBytes uint16) {
		seq, lpn, off, n, ok := decodeDeltaRecord(buf, int(pageBytes))
		if !ok {
			return
		}
		if off < 0 || n < 1 || off+n > int(pageBytes) {
			t.Fatalf("accepted delta [%d,%d) outside a %d-byte page", off, off+n, pageBytes)
		}
		re := make([]byte, deltaHdrBytes+n)
		encodeDeltaRecord(re, seq, lpn, off, buf[deltaHdrBytes:deltaHdrBytes+n])
		if !bytes.Equal(re, buf[:deltaHdrBytes+n]) {
			t.Fatalf("decoded (seq %d, lpn %d, off %d, n %d) re-encodes to %x, want %x", seq, lpn, off, n, re, buf[:deltaHdrBytes+n])
		}
	})
}
