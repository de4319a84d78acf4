package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"hybridmem/internal/memtypes"
)

// FuzzDecode feeds arbitrary bytes to the auto-detecting decoder. Every
// input either decodes or fails with an error, never a panic; the
// decoder's only input buffer stays at its 64 KB line cap; Decode,
// DecodeBatch and a StreamReader, however the input arrives (one byte
// at a time, half-size reads, the last bytes together with io.EOF),
// yield the byte-at-a-time reference's records, record count and exact
// error over a plain reader; and whatever records they yield,
// re-encoded as binary, decode back to the same records.
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
	f.Add(append([]byte("HMT\x01"), bytes.Repeat([]byte{0x80}, 10)...)) // overflows at the end of input
	for _, seed := range batchSeeds() {
		f.Add(seed)
	}
	for _, format := range []Format{FormatText, FormatBinary} {
		f.Add(encode(f, overflowRecords(), format, false))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		ref, err := NewDecoder(bytes.NewReader(data), 8)
		if err != nil {
			return
		}
		var got []coreRec
		var end error
		for {
			core, rec, err := ref.byteDecode()
			if err != nil {
				end = err
				break
			}
			got = append(got, coreRec{core, rec})
		}

		// Every path must yield the reference's records, count and error,
		// whatever the batch size and however the input arrives.
		recs, n, err := drainDecode(t, bytes.NewReader(data))
		checkSame(t, "Decode", got, ref.Records(), end, recs, n, err)
		for _, tc := range []struct {
			name string
			r    io.Reader
			size int
		}{
			{"DecodeBatch", bytes.NewReader(data), 3},
			{"DecodeBatch/OneByteReader", iotest.OneByteReader(bytes.NewReader(data)), batchRecs},
			{"DecodeBatch/DataErrReader", iotest.DataErrReader(bytes.NewReader(data)), batchRecs},
		} {
			recs, n, err := drainBatches(tc.r, tc.size)
			checkSame(t, tc.name, got, ref.Records(), end, recs, n, err)
		}
		for _, tc := range []struct {
			name string
			r    io.Reader
		}{
			{"StreamReader", bytes.NewReader(data)},
			{"StreamReader/HalfReader", iotest.HalfReader(bytes.NewReader(data))},
		} {
			recs, n, err := drainStream(tc.r, got)
			if err == nil {
				err = io.EOF
			}
			checkSame(t, tc.name, got, ref.Records(), end, recs, n, err)
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

type coreRec struct {
	core int
	rec  memtypes.Rec
}

// batchSeeds are inputs at the edges of DecodeBatch's parsers: a binary
// record and a text line straddling the 64 KB bufio buffer, an 11-byte
// varint and an out-of-range core amid valid records, CRLF line ends,
// and an unterminated only line of one byte less than, exactly and one
// byte more than the buffer.
func batchSeeds() [][]byte {
	// 7-byte records from offset 4: record 9361 spans bytes 65531-65537.
	straddle := append([]byte(nil), binaryMagic...)
	for i := 0; i < 9400; i++ {
		straddle = append(straddle, byte(i%8)<<1, 1)
		straddle = binary.AppendUvarint(straddle, 1<<30+uint64(i)*64)
	}
	rec := []byte{3, 1, 0x40}
	mid := func(bad ...byte) []byte {
		b := append([]byte(nil), binaryMagic...)
		for i := 0; i < 20; i++ {
			b = append(b, rec...)
		}
		b = append(b, bad...)
		for i := 0; i < 20; i++ {
			b = append(b, rec...)
		}
		return b
	}
	return [][]byte{
		straddle,
		mid(2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x40),
		mid(9<<1, 1, 0x40),
		// 9-byte lines: line 7282 spans bytes 65529-65537.
		[]byte(strings.Repeat("0 1 40 R\n", 7300)),
		[]byte("0 1 40 R\r\n# c\r\n\r\n1 2 0x80 W \r\n7 3 ff r\r\n"),
		unterminatedLine(1<<16 - 1),
		unterminatedLine(1 << 16),
		unterminatedLine(1<<16 + 1),
	}
}

// unterminatedLine is a text trace of size bytes: one record line,
// padded with spaces and without a '\n'.
func unterminatedLine(size int) []byte {
	line := "0 1 40 R"
	return []byte(line + strings.Repeat(" ", size-len(line)))
}

// drainDecode decodes r a record at a time through Decode.
func drainDecode(t *testing.T, r io.Reader) ([]coreRec, uint64, error) {
	d, err := NewDecoder(r, 8)
	if err != nil {
		return nil, 0, err
	}
	var out []coreRec
	for {
		core, rec, err := d.Decode()
		if err != nil {
			if n := d.br.Size(); n > 1<<16 {
				t.Fatalf("decoder buffer grew to %d bytes", n)
			}
			return out, d.Records(), err
		}
		if core < 0 || core >= 8 {
			t.Fatalf("record %d: core %d out of range", len(out), core)
		}
		out = append(out, coreRec{core, rec})
	}
}

// drainBatches decodes r through DecodeBatch, size records at a time.
func drainBatches(r io.Reader, size int) ([]coreRec, uint64, error) {
	d, err := NewDecoder(r, 8)
	if err != nil {
		return nil, 0, err
	}
	var out []coreRec
	cores, recs := make([]int, size), make([]memtypes.Rec, size)
	for {
		n, err := d.DecodeBatch(cores, recs)
		if n < size && err == nil {
			return out, d.Records(), fmt.Errorf("short batch of %d without an error", n)
		}
		for i := range recs[:n] {
			out = append(out, coreRec{cores[i], recs[i]})
		}
		if err != nil {
			return out, d.Records(), err
		}
	}
}

// drainStream replays r through a StreamReader, pulling one record at a
// time from the core want says comes next, so no window fills; then it
// pulls once more to reach the end of the stream.
func drainStream(r io.Reader, want []coreRec) ([]coreRec, uint64, error) {
	sr, err := NewStreamReader(r, 8, 0)
	if err != nil {
		return nil, 0, err
	}
	defer sr.Close()
	var out []coreRec
	var buf [1]memtypes.Rec
	for _, w := range want {
		if sr.Source(w.core).NextBatch(buf[:]) == 0 {
			break
		}
		out = append(out, coreRec{w.core, buf[0]})
	}
	if sr.Source(0).NextBatch(buf[:]) != 0 {
		out = append(out, coreRec{0, buf[0]})
	}
	return out, sr.Records(), sr.Err()
}

// checkSame fails t unless a path's records, record count and final
// error match the reference's.
func checkSame(t *testing.T, name string, want []coreRec, wantN uint64, wantErr error, got []coreRec, n uint64, err error) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: %d records differ from the reference's %d", name, len(got), len(want))
	}
	if n != wantN {
		t.Fatalf("%s: Records() = %d, reference %d", name, n, wantN)
	}
	if err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("%s: error %v, reference %v", name, err, wantErr)
	}
}
