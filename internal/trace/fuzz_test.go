package trace

import (
	"bytes"
	"io"
	"testing"

	"hybridmem/internal/memtypes"
)

// FuzzDecode feeds arbitrary bytes to the auto-detecting decoder. Every
// input either decodes or fails with an error, never a panic; the
// decoder's only input buffer stays at its 64 KB line cap; and whatever
// records it yields, re-encoded as binary, decode back to the same
// records.
func FuzzDecode(f *testing.F) {
	recs := sampleRecords(40, 8)
	for _, tc := range []struct {
		format   Format
		compress bool
	}{
		{FormatText, false},
		{FormatText, true},
		{FormatBinary, false},
		{FormatBinary, true},
	} {
		data := encode(f, recs, tc.format, tc.compress)
		f.Add(data)
		f.Add(data[:len(data)/2]) // truncated mid-stream
	}
	f.Add([]byte("0 1 40 R\n# comment\n\n  +7\t2 0x80 w \n"))
	f.Add([]byte("0 1 40 X\n"))
	f.Add([]byte("HMT\x02"))
	f.Add([]byte{0x1f, 0x8b})
	f.Add(append([]byte("HMT\x01"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))

	type coreRec struct {
		core int
		rec  memtypes.Rec
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := NewDecoder(bytes.NewReader(data), 8)
		if err != nil {
			return
		}
		var got []coreRec
		for {
			core, rec, err := d.Decode()
			if err != nil {
				break
			}
			if core < 0 || core >= 8 {
				t.Fatalf("record %d: core %d out of range", len(got), core)
			}
			got = append(got, coreRec{core, rec})
		}
		if n := d.br.Size(); n > 1<<16 {
			t.Fatalf("decoder buffer grew to %d bytes", n)
		}

		var buf bytes.Buffer
		sw := NewStreamWriter(&buf, FormatBinary, false)
		for _, r := range got {
			if err := sw.Append(r.core, r.rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		back, err := NewDecoder(&buf, 8)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range got {
			core, rec, err := back.Decode()
			if err != nil {
				t.Fatalf("re-encoded record %d: %v", i, err)
			}
			if core != want.core || rec != want.rec {
				t.Fatalf("re-encoded record %d: core %d %+v, want core %d %+v", i, core, rec, want.core, want.rec)
			}
		}
		if _, _, err := back.Decode(); err != io.EOF {
			t.Fatalf("re-encoded stream: want io.EOF after %d records, got %v", len(got), err)
		}
	})
}
