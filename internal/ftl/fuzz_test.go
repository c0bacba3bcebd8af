package ftl

import (
	"bytes"
	"testing"
)

// FuzzDecodeOOB feeds arbitrary spare-area bytes to the OOB record
// decoder Mount runs on every page: it must never panic, and a record it
// accepts must re-encode to exactly the bytes it came from (so nothing a
// torn or corrupt program left behind can decode into a different
// claim). The seed corpus under testdata/fuzz holds valid records, torn
// prefixes, blank spares and bit flips.
func FuzzDecodeOOB(f *testing.F) {
	f.Add(encodeOOB(7, 42, Tag{1, 2, 3}))
	f.Fuzz(func(t *testing.T, rec []byte) {
		seq, lpn, tag, ok := decodeOOB(rec)
		if !ok {
			return
		}
		if re := encodeOOB(seq, lpn, tag); !bytes.Equal(re, rec[:OOBRecordBytes]) {
			t.Fatalf("decoded (seq %d, lpn %d) re-encodes to %x, want %x", seq, lpn, re, rec[:OOBRecordBytes])
		}
	})
}
