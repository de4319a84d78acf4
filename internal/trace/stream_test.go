package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"hybridmem/internal/memtypes"
)

// sampleRecords builds a deterministic interleaved record sequence over
// n cores.
func sampleRecords(n, cores int) []struct {
	core int
	rec  memtypes.Rec
} {
	out := make([]struct {
		core int
		rec  memtypes.Rec
	}, n)
	s := uint64(42)
	for i := range out {
		s = s*6364136223846793005 + 1
		out[i].core = int(s % uint64(cores))
		out[i].rec = memtypes.Rec{
			Gap:   s >> 40 % 500,
			Addr:  memtypes.Addr(s % (1 << 34) &^ 63),
			Write: s%5 == 0,
		}
	}
	return out
}

// encode serializes records with a StreamWriter into a buffer.
func encode(t testing.TB, recs []struct {
	core int
	rec  memtypes.Rec
}, format Format, compress bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf, format, compress)
	sw.Comment("header comment")
	for _, r := range recs {
		if err := sw.Append(r.core, r.rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if sw.Records() != uint64(len(recs)) {
		t.Fatalf("writer counted %d records, want %d", sw.Records(), len(recs))
	}
	return buf.Bytes()
}

func TestStreamRoundTripAllEncodings(t *testing.T) {
	recs := sampleRecords(500, 8)
	for _, tc := range []struct {
		format   Format
		compress bool
	}{
		{FormatText, false},
		{FormatText, true},
		{FormatBinary, false},
		{FormatBinary, true},
	} {
		name := fmt.Sprintf("%v/gz=%v", tc.format, tc.compress)
		data := encode(t, recs, tc.format, tc.compress)
		d, err := NewDecoder(bytes.NewReader(data), 8)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d.Format() != tc.format || d.Compressed() != tc.compress {
			t.Fatalf("%s: detected %v/gz=%v", name, d.Format(), d.Compressed())
		}
		for i, want := range recs {
			core, rec, err := d.Decode()
			if err != nil {
				t.Fatalf("%s: record %d: %v", name, i, err)
			}
			if core != want.core || rec != want.rec {
				t.Fatalf("%s: record %d: got core %d %+v, want core %d %+v", name, i, core, rec, want.core, want.rec)
			}
		}
		if _, _, err := d.Decode(); err != io.EOF {
			t.Fatalf("%s: want io.EOF at end, got %v", name, err)
		}
		if d.Records() != uint64(len(recs)) {
			t.Fatalf("%s: decoder counted %d records", name, d.Records())
		}
	}
}

func TestReadAutoDetectsAllEncodings(t *testing.T) {
	recs := sampleRecords(300, 8)
	var want [][]memtypes.Rec
	for _, tc := range []struct {
		format   Format
		compress bool
	}{
		{FormatText, false},
		{FormatText, true},
		{FormatBinary, false},
		{FormatBinary, true},
	} {
		cores, err := replayCores(bytes.NewReader(encode(t, recs, tc.format, tc.compress)), 8)
		if err != nil {
			t.Fatalf("%v/gz=%v: %v", tc.format, tc.compress, err)
		}
		if want == nil {
			want = cores
			continue
		}
		if !reflect.DeepEqual(cores, want) {
			t.Fatalf("%v/gz=%v: decoded trace differs from text decoding", tc.format, tc.compress)
		}
	}
	if n := countRecords(want); n != 300 {
		t.Fatalf("records %d, want 300", n)
	}
}

func TestBinaryDecodeErrors(t *testing.T) {
	recs := sampleRecords(10, 8)
	full := encode(t, recs, FormatBinary, false)

	// Truncating anywhere inside the record stream must be an explicit
	// error, never a silently shorter trace.
	for cut := len(binaryMagic) + 1; cut < len(full); cut++ {
		d, err := NewDecoder(bytes.NewReader(full[:cut]), 8)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		for {
			_, _, err = d.Decode()
			if err != nil {
				break
			}
		}
		// A cut at a record boundary is indistinguishable from a shorter
		// trace (clean EOF, fewer records); anywhere else must surface a
		// truncation error. Either way, a full decode is impossible.
		if err == io.EOF && d.Records() == uint64(len(recs)) {
			t.Fatalf("cut %d: truncated trace decoded completely", cut)
		}
	}

	// Core out of range.
	var buf bytes.Buffer
	buf.Write(binaryMagic)
	b := binary.AppendUvarint(nil, 9<<1)
	b = binary.AppendUvarint(b, 1)
	b = binary.AppendUvarint(b, 64)
	buf.Write(b)
	d, err := NewDecoder(&buf, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Decode(); err == nil || !strings.Contains(err.Error(), "core 9") {
		t.Fatalf("out-of-range core: got %v", err)
	}

	// Unknown future version must fail up front.
	bad := append([]byte{'H', 'M', 'T', 2}, full[4:]...)
	if _, err := NewDecoder(bytes.NewReader(bad), 8); err == nil || !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("future version: got %v", err)
	}
}

func TestTextDecodeBoundedOnGarbageInput(t *testing.T) {
	// A newline-free blob misdetected as text must fail fast with a
	// line-length error, not accumulate in memory.
	blob := io.MultiReader(
		strings.NewReader(strings.Repeat("x", 1<<20)),
		&endlessTrace{}, // never returns EOF
	)
	d, err := NewDecoder(blob, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Decode(); err == nil || !strings.Contains(err.Error(), "longer than") {
		t.Fatalf("want line-length error, got %v", err)
	}
}

func TestTextDecodeSurfacesTransportErrors(t *testing.T) {
	// A read failure mid-line (e.g. a corrupt gzip stream) must surface
	// the transport error itself, not a parse error on the fragment read
	// before the failure.
	errBroken := errors.New("broken transport")
	d, err := NewDecoder(io.MultiReader(
		strings.NewReader("0 1 40 R\n0 2 80"), // second line cut mid-record
		iotest.ErrReader(errBroken),
	), 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Decode(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Decode(); !errors.Is(err, errBroken) {
		t.Fatalf("want the transport error, got %v", err)
	}
}

// TestBinaryDecodeSurfacesTransportErrors: a read failure inside a
// binary record surfaces as itself, positioned at the record it cut, from
// Decode and from the byte-at-a-time reference alike. FuzzDecode's
// inputs only ever end in io.EOF, so it cannot reach this path.
func TestBinaryDecodeSurfacesTransportErrors(t *testing.T) {
	errBroken := errors.New("broken transport")
	// One whole record, then a record whose gap varint is cut after a
	// continuation byte.
	data := append(append([]byte(nil), binaryMagic...), 2, 1, 0x40, 4, 0x80)
	var msgs []string
	for _, tc := range []struct {
		name   string
		decode func(*Decoder) (int, memtypes.Rec, error)
	}{
		{"Decode", (*Decoder).Decode},
		{"reference", (*Decoder).byteDecode},
	} {
		d, err := NewDecoder(io.MultiReader(bytes.NewReader(data), iotest.ErrReader(errBroken)), 8)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := tc.decode(d); err != nil {
			t.Fatalf("%s: record 1: %v", tc.name, err)
		}
		_, _, err = tc.decode(d)
		if !errors.Is(err, errBroken) || !strings.Contains(err.Error(), "record 2:") {
			t.Fatalf("%s: want the transport error at record 2, got %v", tc.name, err)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Fatalf("Decode reports %q, the reference %q", msgs[0], msgs[1])
	}
}

// endOnce is an io.Reader that fails t if it is read again after it
// returned an error.
type endOnce struct {
	t    *testing.T
	r    io.Reader
	done bool
}

func (e *endOnce) Read(p []byte) (int, error) {
	if e.done {
		e.t.Fatal("input read again after it ended")
	}
	n, err := e.r.Read(p)
	e.done = err != nil
	return n, err
}

// TestDecodeReadsNothingAfterTheEnd: once the input has returned io.EOF
// or a read error, the decoder reports it again without reading more,
// also after an unterminated final text line.
func TestDecodeReadsNothingAfterTheEnd(t *testing.T) {
	errBroken := errors.New("broken transport")
	bin := encode(t, sampleRecords(3, 2), FormatBinary, false)
	for _, tc := range []struct {
		name string
		r    io.Reader
		want error
	}{
		{"text", strings.NewReader("0 1 40 R\n1 2 80 W"), io.EOF},
		{"binary", bytes.NewReader(bin), io.EOF},
		{"text/broken", io.MultiReader(strings.NewReader("0 1 40 R\n"), iotest.ErrReader(errBroken)), errBroken},
		{"binary/broken", io.MultiReader(bytes.NewReader(bin), iotest.ErrReader(errBroken)), errBroken},
	} {
		d, err := NewDecoder(&endOnce{t: t, r: iotest.OneByteReader(tc.r)}, 8)
		if err != nil {
			t.Fatal(err)
		}
		for range 3 {
			for {
				if _, _, err = d.Decode(); err != nil {
					break
				}
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("%s: got %v, want %v", tc.name, err, tc.want)
			}
		}
	}
}

func TestStreamReaderServesPerCore(t *testing.T) {
	recs := sampleRecords(400, 4)
	data := encode(t, recs, FormatBinary, true)
	sr, err := NewStreamReader(bytes.NewReader(data), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Drain core by core — the worst consumption order for the windows,
	// but well within the default window at 400 records.
	for core := 0; core < 4; core++ {
		var want []memtypes.Rec
		for _, r := range recs {
			if r.core == core {
				want = append(want, r.rec)
			}
		}
		// Pull with a different batch size per core, including one
		// record at a time.
		src := sr.Source(core)
		buf := make([]memtypes.Rec, 1+core*5)
		var got []memtypes.Rec
		for n := src.NextBatch(buf); n > 0; n = src.NextBatch(buf) {
			got = append(got, buf[:n]...)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("core %d: got %d records, want %d, or their values differ", core, len(got), len(want))
		}
	}
	if err := sr.Err(); err != nil {
		t.Fatal(err)
	}
	if sr.Records() != uint64(len(recs)) {
		t.Fatalf("records %d, want %d", sr.Records(), len(recs))
	}
	if sr.MaxQueued() > len(recs) {
		t.Fatalf("max queued %d exceeds trace size", sr.MaxQueued())
	}
}

func TestStreamReaderWindowSkewError(t *testing.T) {
	// All records on core 1: serving core 0 must fail fast once the
	// window fills instead of buffering the whole trace.
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf, FormatText, false)
	for i := 0; i < 100; i++ {
		sw.Append(1, memtypes.Rec{Gap: 1, Addr: memtypes.Addr(i * 64)})
	}
	sw.Close()
	sr, err := NewStreamReader(&buf, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	var rec [4]memtypes.Rec
	if sr.Source(0).NextBatch(rec[:]) != 0 {
		t.Fatal("core 0 got a record from a core-1-only trace")
	}
	if err := sr.Err(); err == nil || !strings.Contains(err.Error(), "window") {
		t.Fatalf("want window skew error, got %v", err)
	}
	if sr.MaxQueued() > 8 {
		t.Fatalf("buffered %d records past the window", sr.MaxQueued())
	}
	// Records counts only the records queued, not the one the error
	// names.
	if n := sr.Records(); n != 8 {
		t.Fatalf("Records() = %d after the skew error, want the 8 queued", n)
	}
	if err := sr.Err(); !strings.Contains(err.Error(), "record 9:") {
		t.Fatalf("skew error %v does not name record 9", err)
	}
	// The error also poisons the buffered core's stream: replay must not
	// continue on partial data.
	if sr.Source(1).NextBatch(rec[:]) != 0 {
		t.Fatal("core 1 served records after a stream error")
	}
}

// TestStreamReaderRejectsWindowAboveMax pins the window's upper bound:
// the reader refuses a window above MaxWindow before reading any input.
func TestStreamReaderRejectsWindowAboveMax(t *testing.T) {
	for _, w := range []int{MaxWindow + 1, 100_000_000} {
		if _, err := NewStreamReader(strings.NewReader(sample), 8, w); err == nil || !strings.Contains(err.Error(), "window") {
			t.Fatalf("window %d: got %v, want a window error", w, err)
		}
	}
	if _, err := NewStreamReader(strings.NewReader(sample), 8, MaxWindow); err != nil {
		t.Fatalf("window %d (the bound) rejected: %v", MaxWindow, err)
	}
}

// endlessTrace is an unbounded synthetic binary trace: an io.Reader that
// generates records forever, round-robin across 8 cores. Any reader that
// materializes it would never terminate — completing a bounded replay
// over it proves streaming.
type endlessTrace struct {
	buf  []byte
	off  int
	core int
	rng  uint64
	init bool
}

func (g *endlessTrace) Read(p []byte) (int, error) {
	if g.off == len(g.buf) {
		g.buf = g.buf[:0]
		g.off = 0
		if !g.init {
			g.buf = append(g.buf, binaryMagic...)
			g.init = true
		}
		for len(g.buf) < 1<<14 {
			g.rng = g.rng*6364136223846793005 + 1
			hdr := uint64(g.core)<<1 | g.rng>>63
			g.core = (g.core + 1) % 8
			g.buf = binary.AppendUvarint(g.buf, hdr)
			g.buf = binary.AppendUvarint(g.buf, g.rng>>56)
			g.buf = binary.AppendUvarint(g.buf, g.rng>>20&^63)
		}
	}
	n := copy(p, g.buf[g.off:])
	g.off += n
	return n, nil
}

func TestStreamReaderBoundedMemoryOnUnboundedTrace(t *testing.T) {
	const window = 4096
	const total = 5_000_000
	sr, err := NewStreamReader(&endlessTrace{}, 8, window)
	if err != nil {
		t.Fatal(err)
	}
	srcs := make([]*CoreStream, 8)
	for i := range srcs {
		srcs[i] = sr.Source(i)
	}
	var rec [1]memtypes.Rec
	for i := 0; i < total; i++ {
		if srcs[i%8].NextBatch(rec[:]) == 0 {
			t.Fatalf("record %d: stream ended early: %v", i, sr.Err())
		}
	}
	if err := sr.Err(); err != nil {
		t.Fatal(err)
	}
	if sr.Records() < total {
		t.Fatalf("decoded %d records, want >= %d", sr.Records(), total)
	}
	if sr.MaxQueued() > window {
		t.Fatalf("buffered %d records, window is %d", sr.MaxQueued(), window)
	}
}

func TestInterleaverOrdersByInstructionPosition(t *testing.T) {
	// core 0 retires at positions 101, 202; core 1 at 11, 22, 33.
	cores := [][]memtypes.Rec{
		{{Gap: 100, Addr: 0}, {Gap: 100, Addr: 64}},
		{{Gap: 10, Addr: 128}, {Gap: 10, Addr: 192}, {Gap: 10, Addr: 256}},
	}
	var order []int
	it := NewInterleaver(sources(cores, 1))
	for {
		core, _, ok := it.Next()
		if !ok {
			break
		}
		order = append(order, core)
	}
	if want := []int{1, 1, 1, 0, 0}; !reflect.DeepEqual(order, want) {
		t.Fatalf("interleave order %v, want %v", order, want)
	}
}

func TestWritePreservesGlobalOrder(t *testing.T) {
	cores := [][]memtypes.Rec{
		{{Gap: 100, Addr: 0}, {Gap: 100, Addr: 64}},
		{{Gap: 10, Addr: 128}, {Gap: 10, Addr: 192, Write: true}, {Gap: 10, Addr: 256}},
	}
	var buf bytes.Buffer
	if err := writeCores(&buf, cores, FormatText); err != nil {
		t.Fatal(err)
	}
	// Global order by cumulative instruction position, not round-robin.
	var order []int
	d, err := NewDecoder(bytes.NewReader(buf.Bytes()), 8)
	if err != nil {
		t.Fatal(err)
	}
	for {
		core, _, err := d.Decode()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		order = append(order, core)
	}
	if want := []int{1, 1, 1, 0, 0}; !reflect.DeepEqual(order, want) {
		t.Fatalf("serialized core order %v, want %v", order, want)
	}
	// A write-read-write round trip must be byte-stable: re-serializing
	// the replayed trace reproduces the file exactly.
	back, err := replayCores(bytes.NewReader(buf.Bytes()), 8)
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := writeCores(&again, back, FormatText); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatalf("round trip not byte-identical:\n%q\nvs\n%q", buf.Bytes(), again.Bytes())
	}
}

func TestStreamWriterCommentOnlyInText(t *testing.T) {
	var text, bin bytes.Buffer
	swT := NewStreamWriter(&text, FormatText, false)
	swT.Comment("hello")
	swT.Close()
	if !strings.Contains(text.String(), "# hello\n") {
		t.Fatalf("text comment missing: %q", text.String())
	}
	swB := NewStreamWriter(&bin, FormatBinary, false)
	swB.Comment("hello")
	swB.Close()
	if !bytes.Equal(bin.Bytes(), binaryMagic) {
		t.Fatalf("binary comment wrote payload bytes: %x", bin.Bytes())
	}
}

func TestParseFormat(t *testing.T) {
	if f, err := ParseFormat("text"); err != nil || f != FormatText {
		t.Fatalf("text: %v %v", f, err)
	}
	if f, err := ParseFormat("binary"); err != nil || f != FormatBinary {
		t.Fatalf("binary: %v %v", f, err)
	}
	if _, err := ParseFormat("msgpack"); err == nil {
		t.Fatal("unknown format accepted")
	}
}

// TestStreamReadAllocsIndependentOfLength pins the decoder's steady
// state: reading a 1k-record and a 100k-record stream make the same
// number of allocations — at most 4: the input reader, the decoder, and
// its bufio reader and buffer — in text and in binary, so decoding a
// record allocates nothing.
func TestStreamReadAllocsIndependentOfLength(t *testing.T) {
	for _, format := range []Format{FormatText, FormatBinary} {
		read := func(data []byte) float64 {
			return testing.AllocsPerRun(3, func() {
				d, err := NewDecoder(bytes.NewReader(data), 8)
				if err != nil {
					t.Fatal(err)
				}
				for {
					if _, _, err := d.Decode(); err == io.EOF {
						break
					} else if err != nil {
						t.Fatal(err)
					}
				}
			})
		}
		short := read(encode(t, sampleRecords(1_000, 8), format, false))
		long := read(encode(t, sampleRecords(100_000, 8), format, false))
		if short != long || long > 4 {
			t.Errorf("%v: %v allocs reading 1k records, %v reading 100k; want equal and at most 4", format, short, long)
		}
	}
}

// drainStreams replays a trace through 8 CoreStreams pulled round-robin,
// 64 records at a time as the simulator's run loop pulls them, closes
// the reader and returns how many records it delivered.
func drainStreams(tb testing.TB, data []byte) uint64 {
	sr, err := NewStreamReader(bytes.NewReader(data), 8, 0)
	if err != nil {
		tb.Fatal(err)
	}
	defer sr.Close()
	var srcs [8]*CoreStream
	for c := range srcs {
		srcs[c] = sr.Source(c)
	}
	var buf [64]memtypes.Rec
	for live := true; live; {
		live = false
		for _, s := range srcs {
			if s.NextBatch(buf[:]) > 0 {
				live = true
			}
		}
	}
	if err := sr.Err(); err != nil {
		tb.Fatal(err)
	}
	return sr.Records()
}

// TestStreamReaderAllocsIndependentOfLength pins decode-ahead replay's
// steady state: draining a 1k-record and a 100k-record trace through 8
// CoreStreams allocates the same, in text and in binary. The decode
// ring is recycled across readers, and the per-core queues stop growing
// once they hold the trace's interleave skew.
func TestStreamReaderAllocsIndependentOfLength(t *testing.T) {
	roundRobin := func(n int) []struct {
		core int
		rec  memtypes.Rec
	} {
		recs := sampleRecords(n, 8)
		for i := range recs {
			recs[i].core = i % 8
		}
		return recs
	}
	for _, format := range []Format{FormatText, FormatBinary} {
		read := func(data []byte) float64 {
			drainStreams(t, data) // warm the ring pool
			return testing.AllocsPerRun(3, func() { drainStreams(t, data) })
		}
		short := read(encode(t, roundRobin(1_000), format, false))
		long := read(encode(t, roundRobin(100_000), format, false))
		if short != long {
			t.Errorf("%v: %v allocs draining 1k records, %v draining 100k; want equal", format, short, long)
		}
	}
}

// benchTrace returns an encoded 1M-record trace for throughput
// benchmarks.
func benchTrace(b *testing.B, format Format, compress bool) []byte {
	b.Helper()
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf, format, compress)
	s := uint64(7)
	for i := 0; i < 1_000_000; i++ {
		s = s*6364136223846793005 + 1
		sw.Append(int(s%8), memtypes.Rec{Gap: s >> 56, Addr: memtypes.Addr(s % (1 << 32) &^ 63), Write: s%4 == 0})
	}
	if err := sw.Close(); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkTraceStreamRead measures streaming decode throughput — the
// ingestion rate limit of trace-driven runs — over a 1M-record trace per
// iteration: bytes/s over the encoded size, and ns/rec and cpu-ns/rec
// (process CPU time, so decoding ahead on another goroutine counts). The
// plain sub-benchmarks drive Decoder.DecodeBatch; the stream- ones
// replay through a StreamReader's 8 CoreStreams, 64 records per pull.
func BenchmarkTraceStreamRead(b *testing.B) {
	for _, tc := range []struct {
		name     string
		format   Format
		compress bool
	}{
		{"binary", FormatBinary, false},
		{"binary-gz", FormatBinary, true},
		{"text", FormatText, false},
	} {
		data := benchTrace(b, tc.format, tc.compress)
		decode := func(b *testing.B) uint64 {
			d, err := NewDecoder(bytes.NewReader(data), 8)
			if err != nil {
				b.Fatal(err)
			}
			var cores [batchRecs]int
			var recs [batchRecs]memtypes.Rec
			for {
				_, err := d.DecodeBatch(cores[:], recs[:])
				if err == io.EOF {
					return d.Records()
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		}
		stream := func(b *testing.B) uint64 { return drainStreams(b, data) }
		for _, run := range []struct {
			prefix string
			drain  func(*testing.B) uint64
		}{{"", decode}, {"stream-", stream}} {
			b.Run(run.prefix+tc.name, func(b *testing.B) {
				b.SetBytes(int64(len(data)))
				b.ResetTimer()
				cpu := processCPU()
				for i := 0; i < b.N; i++ {
					if n := run.drain(b); n != 1_000_000 {
						b.Fatalf("decoded %d records", n)
					}
				}
				recs := float64(b.N) * 1_000_000
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/recs, "ns/rec")
				b.ReportMetric(float64((processCPU()-cpu).Nanoseconds())/recs, "cpu-ns/rec")
			})
		}
	}
}
