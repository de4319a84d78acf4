package trace

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"strconv"
	"sync"

	"hybridmem/internal/memtypes"
)

// Format selects a trace encoding (see the package docs for both specs).
type Format int

const (
	// FormatText is the line-oriented text format.
	FormatText Format = iota
	// FormatBinary is the varint-encoded binary format.
	FormatBinary
)

// String returns the -format flag spelling of f.
func (f Format) String() string {
	if f == FormatBinary {
		return "binary"
	}
	return "text"
}

// ParseFormat resolves a -format flag value.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "text":
		return FormatText, nil
	case "binary":
		return FormatBinary, nil
	}
	return 0, errorf("unknown format %q (want text or binary)", s)
}

// binaryMagic opens every binary trace: "HMT" plus the format version.
var binaryMagic = []byte{'H', 'M', 'T', 1}

// DefaultWindow is the default per-core lookahead of a StreamReader, in
// records. At 24 bytes per record it bounds the reader's buffering to
// ~1.5 MB per core regardless of trace size.
const DefaultWindow = 1 << 16

// MaxWindow is the largest per-core lookahead a StreamReader accepts, in
// records. Every core but the one being served can hold a full window,
// so at 24 bytes per record a replay by 8 cores queues at most 8 × 24 MB
// = 192 MB of records; the queues' backing arrays add at most about as
// much again (a drained prefix is reclaimed once it is half the array).
// A larger window would let one small, highly compressible upload make
// the reader buffer without bound.
const MaxWindow = 1 << 20

// Decoder reads one trace record at a time in the file's global order,
// auto-detecting gzip compression and the text vs binary encoding from
// the stream's first bytes. It buffers only bufio-sized chunks of input:
// decoding is constant-memory.
type Decoder struct {
	br         *bufio.Reader
	format     Format
	compressed bool
	maxCores   int
	line       int    // text only: current line for error positions
	n          uint64 // records decoded so far
	// instr sums gap+1, the instructions a record retires, over the
	// records decoded so far. A record that would take it past 2^64-1
	// is an error: no core's instruction count can wrap.
	instr uint64
}

// NewDecoder sniffs r and returns a decoder for its format. Traces may
// hold records of cores 0..maxCores-1.
func NewDecoder(r io.Reader, maxCores int) (*Decoder, error) {
	if maxCores < 1 {
		return nil, errorf("maxCores must be >= 1, got %d", maxCores)
	}
	d := &Decoder{br: bufio.NewReaderSize(r, 1<<16), maxCores: maxCores}
	if hdr, _ := d.br.Peek(2); len(hdr) == 2 && hdr[0] == 0x1f && hdr[1] == 0x8b {
		gz, err := gzip.NewReader(d.br)
		if err != nil {
			return nil, errorf("gzip: %w", err)
		}
		d.compressed = true
		d.br = bufio.NewReaderSize(gz, 1<<16)
	}
	hdr, _ := d.br.Peek(len(binaryMagic))
	if bytes.Equal(hdr, binaryMagic) {
		d.br.Discard(len(binaryMagic))
		d.format = FormatBinary
	} else if len(hdr) == len(binaryMagic) && bytes.Equal(hdr[:3], binaryMagic[:3]) {
		return nil, errorf("unsupported binary trace version %d (this build reads version %d)", hdr[3], binaryMagic[3])
	}
	return d, nil
}

// Format reports the detected encoding.
func (d *Decoder) Format() Format { return d.format }

// Compressed reports whether the input was gzip-compressed.
func (d *Decoder) Compressed() bool { return d.compressed }

// Records returns how many records have been decoded so far.
func (d *Decoder) Records() uint64 { return d.n }

// Decode returns the next record and its issuing core, reading varints
// a byte at a time and lines through bufio. It returns io.EOF at a clean
// end of trace and a positioned error (line or record number) on
// malformed input, including a truncated final binary record and a
// record whose gap takes the trace past 2^64-1 instructions.
// DecodeBatch is the fast path and Decode what it falls back to, so the
// two yield the same records and errors.
func (d *Decoder) Decode() (core int, rec memtypes.Rec, err error) {
	if d.format == FormatBinary {
		return d.decodeBinary()
	}
	return d.decodeText()
}

// DecodeBatch decodes up to min(len(cores), len(recs)) records into recs,
// each with its issuing core at the same index of cores, and returns how
// many it decoded. It returns fewer only with a non-nil error: io.EOF at
// a clean end of trace, or the error Decode returns for the record after
// the n decoded ones.
//
// Records are parsed straight from the bufio buffer. A record or line
// straddling the buffer's edge, and any input the fast parsers do not
// accept (a malformed varint, an out-of-range core, a malformed line),
// goes through Decode, so the records, Records and every positioned
// error match a Decode loop's. So does a record that would take the
// instruction count past 2^64-1.
func (d *Decoder) DecodeBatch(cores []int, recs []memtypes.Rec) (int, error) {
	want := min(len(cores), len(recs))
	n := 0
	for n < want {
		if d.format == FormatBinary {
			n += d.scanBinary(cores[n:want], recs[n:want])
		} else {
			n += d.scanText(cores[n:want], recs[n:want])
		}
		if n == want {
			break
		}
		core, rec, err := d.Decode()
		if err != nil {
			return n, err
		}
		cores[n], recs[n] = core, rec
		n++
	}
	return n, nil
}

// scanBinary parses the complete records at the head of the bufio buffer
// into cores and recs. It stops at a record cut by the buffer's edge, a
// malformed varint or an out-of-range core, leaving them to Decode.
func (d *Decoder) scanBinary(cores []int, recs []memtypes.Rec) int {
	buf, _ := d.br.Peek(d.br.Buffered())
	off, n, instr := 0, 0, d.instr
	for n < len(recs) {
		hdr, k1 := binary.Uvarint(buf[off:])
		if k1 <= 0 || hdr>>1 >= uint64(d.maxCores) {
			break
		}
		gap, k2 := binary.Uvarint(buf[off+k1:])
		if k2 <= 0 {
			break
		}
		addr, k3 := binary.Uvarint(buf[off+k1+k2:])
		if k3 <= 0 {
			break
		}
		sum, carry := bits.Add64(instr, gap, 1)
		if carry != 0 {
			break
		}
		instr = sum
		off += k1 + k2 + k3
		cores[n] = int(hdr >> 1)
		recs[n] = memtypes.Rec{Gap: gap, Addr: memtypes.Addr(addr), Write: hdr&1 == 1}
		n++
	}
	d.br.Discard(off)
	d.n += uint64(n)
	d.instr = instr
	return n
}

// scanText parses the complete lines at the head of the bufio buffer
// into cores and recs, skipping blank and comment lines. It stops at a
// line cut by the buffer's edge, one scanLine does not accept, or a
// record past the instruction bound, leaving it to Decode to parse or
// reject.
func (d *Decoder) scanText(cores []int, recs []memtypes.Rec) int {
	buf, _ := d.br.Peek(d.br.Buffered())
	off, n, instr := 0, 0, d.instr
	for n < len(recs) {
		core, rec, k := d.scanLine(buf[off:])
		if k == 0 {
			break
		}
		if core >= 0 {
			sum, carry := bits.Add64(instr, rec.Gap, 1)
			if carry != 0 {
				break
			}
			instr = sum
			cores[n], recs[n] = core, rec
			n++
		}
		off += k
		d.line++
	}
	d.br.Discard(off)
	d.n += uint64(n)
	d.instr = instr
	return n
}

// scanLine parses the text line at the head of s in one pass over its
// bytes and returns the length of the line through its '\n'. core is -1
// for a blank or comment line. A length of 0 means s holds no complete
// line or the line is not a plain well-formed record (four fields, a
// core below maxCores, no overflow); Decode then judges it.
func (d *Decoder) scanLine(s []byte) (core int, rec memtypes.Rec, k int) {
	i := skipBlanks(s, 0)
	if i == len(s) {
		return 0, rec, 0
	}
	if s[i] == '\n' || s[i] == '#' {
		j := bytes.IndexByte(s[i:], '\n')
		if j < 0 {
			return 0, rec, 0
		}
		return -1, rec, i + j + 1
	}
	if s[i] == '+' {
		i++
	}
	cv, i, ok := scanDecimal(s, i)
	if !ok || cv >= uint64(d.maxCores) {
		return 0, rec, 0
	}
	if i = nextFieldStart(s, i); i < 0 {
		return 0, rec, 0
	}
	if rec.Gap, i, ok = scanDecimal(s, i); !ok {
		return 0, rec, 0
	}
	if i = nextFieldStart(s, i); i < 0 {
		return 0, rec, 0
	}
	if i+1 < len(s) && s[i] == '0' && s[i+1] == 'x' {
		i += 2
	}
	addr, i, ok := scanHex(s, i)
	if !ok {
		return 0, rec, 0
	}
	rec.Addr = memtypes.Addr(addr)
	if i = nextFieldStart(s, i); i < 0 {
		return 0, rec, 0
	}
	switch s[i] {
	case 'R', 'r':
	case 'W', 'w':
		rec.Write = true
	default:
		return 0, rec, 0
	}
	if i++; i == len(s) || !isSpaceByte(s[i]) {
		return 0, rec, 0
	}
	if i = skipBlanks(s, i); i == len(s) || s[i] != '\n' {
		return 0, rec, 0
	}
	return int(cv), rec, i + 1
}

// skipBlanks returns the index of the first byte at or after i in s that
// is not a space other than '\n'.
func skipBlanks(s []byte, i int) int {
	for i < len(s) && s[i] != '\n' && isSpaceByte(s[i]) {
		i++
	}
	return i
}

// nextFieldStart checks that the field ending at s[i] is followed by
// spaces and another field on the same line, and returns where that
// field starts, or -1.
func nextFieldStart(s []byte, i int) int {
	if i == len(s) || !isSpaceByte(s[i]) {
		return -1
	}
	if i = skipBlanks(s, i); i == len(s) || s[i] == '\n' {
		return -1
	}
	return i
}

func (d *Decoder) decodeBinary() (int, memtypes.Rec, error) {
	hdr, err := binary.ReadUvarint(d.br)
	if err == io.EOF {
		return 0, memtypes.Rec{}, io.EOF
	}
	if err != nil {
		return 0, memtypes.Rec{}, errorf("record %d: %w", d.n+1, err)
	}
	// Range-check before the int conversion: a corrupt header varint
	// must be a positioned error on every platform, not a 32-bit
	// truncation that mis-attributes the record or indexes out of range.
	if hdr>>1 >= uint64(d.maxCores) {
		return 0, memtypes.Rec{}, errorf("record %d: core %d out of range [0,%d)", d.n+1, hdr>>1, d.maxCores)
	}
	core := int(hdr >> 1)
	gap, err := d.readField()
	if err != nil {
		return 0, memtypes.Rec{}, err
	}
	addr, err := d.readField()
	if err != nil {
		return 0, memtypes.Rec{}, err
	}
	if !d.count(gap) {
		return 0, memtypes.Rec{}, errorf("record %d: gap %d takes the trace past 2^64-1 instructions", d.n+1, gap)
	}
	d.n++
	return core, memtypes.Rec{Gap: gap, Addr: memtypes.Addr(addr), Write: hdr&1 == 1}, nil
}

// count adds the instructions of a record with the given gap to the
// trace's total. It reports false, leaving the total unchanged, if the
// total would pass 2^64-1.
func (d *Decoder) count(gap uint64) bool {
	sum, carry := bits.Add64(d.instr, gap, 1)
	if carry != 0 {
		return false
	}
	d.instr = sum
	return true
}

// readField reads one non-leading varint of a binary record, where EOF
// means the record was cut short.
func (d *Decoder) readField() (uint64, error) {
	v, err := binary.ReadUvarint(d.br)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return 0, errorf("record %d: truncated: %w", d.n+1, err)
	}
	return v, nil
}

func (d *Decoder) decodeText() (int, memtypes.Rec, error) {
	for {
		line, err := d.br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			// A valid record line is tens of bytes; anything outgrowing
			// bufio's 64 KB buffer is garbage input (e.g. a newline-free
			// blob misdetected as text) that must fail fast instead of
			// being buffered in full — the decoder's memory stays
			// bounded on arbitrary inputs.
			return 0, memtypes.Rec{}, errorf("line %d: longer than %d bytes", d.line+1, d.br.Size())
		}
		if err != nil && err != io.EOF {
			// A transport failure (e.g. a corrupt gzip stream) must
			// surface as itself, not as a parse error on the fragment
			// read so far.
			return 0, memtypes.Rec{}, errorf("%w", err)
		}
		if len(line) == 0 && err == io.EOF {
			return 0, memtypes.Rec{}, io.EOF
		}
		d.line++
		s := trimSpaceBytes(line)
		if len(s) == 0 || s[0] == '#' {
			if err == io.EOF {
				return 0, memtypes.Rec{}, io.EOF
			}
			continue
		}
		core, rec, perr := d.parseLine(s)
		if perr != nil {
			return 0, memtypes.Rec{}, perr
		}
		if !d.count(rec.Gap) {
			return 0, memtypes.Rec{}, errorf("line %d: gap %d takes the trace past 2^64-1 instructions", d.line, rec.Gap)
		}
		d.n++
		return core, rec, nil
	}
}

// parseLine parses one non-comment trace line in place. It works on the
// bufio-owned byte slice without converting to string, so steady-state
// text decoding is allocation-free.
func (d *Decoder) parseLine(s []byte) (int, memtypes.Rec, error) {
	var f [4][]byte
	nf := 0
	for rest := s; ; {
		field, r := nextField(rest)
		if len(field) == 0 {
			break
		}
		if nf == len(f) {
			return 0, memtypes.Rec{}, errorf("line %d: want 4 fields, got %d", d.line, countFields(s))
		}
		f[nf] = field
		nf++
		rest = r
	}
	if nf != 4 {
		return 0, memtypes.Rec{}, errorf("line %d: want 4 fields, got %d", d.line, nf)
	}
	cv, ok := parseDecimal(trimPlus(f[0]))
	if !ok || cv >= uint64(d.maxCores) {
		return 0, memtypes.Rec{}, errorf("line %d: bad core %q", d.line, f[0])
	}
	core := int(cv)
	gap, ok := parseDecimal(f[1])
	if !ok {
		return 0, memtypes.Rec{}, errorf("line %d: bad gap %q", d.line, f[1])
	}
	addr, ok := parseHex(f[2])
	if !ok {
		return 0, memtypes.Rec{}, errorf("line %d: bad address %q", d.line, f[2])
	}
	var write bool
	if len(f[3]) != 1 {
		return 0, memtypes.Rec{}, errorf("line %d: bad access type %q", d.line, f[3])
	}
	switch f[3][0] {
	case 'R', 'r':
		write = false
	case 'W', 'w':
		write = true
	default:
		return 0, memtypes.Rec{}, errorf("line %d: bad access type %q", d.line, f[3])
	}
	return core, memtypes.Rec{Gap: gap, Addr: memtypes.Addr(addr), Write: write}, nil
}

func isSpaceByte(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

func trimSpaceBytes(s []byte) []byte {
	for len(s) > 0 && isSpaceByte(s[0]) {
		s = s[1:]
	}
	for len(s) > 0 && isSpaceByte(s[len(s)-1]) {
		s = s[:len(s)-1]
	}
	return s
}

// nextField skips leading spaces and returns the next space-delimited
// field and the remainder of s after it.
func nextField(s []byte) (field, rest []byte) {
	i := 0
	for i < len(s) && isSpaceByte(s[i]) {
		i++
	}
	j := i
	for j < len(s) && !isSpaceByte(s[j]) {
		j++
	}
	return s[i:j], s[j:]
}

func countFields(s []byte) int {
	n := 0
	for {
		var field []byte
		field, s = nextField(s)
		if len(field) == 0 {
			return n
		}
		n++
	}
}

// trimPlus drops one leading '+' so the core field accepts the same
// explicitly-signed spellings strconv.Atoi did.
func trimPlus(b []byte) []byte {
	if len(b) > 1 && b[0] == '+' {
		return b[1:]
	}
	return b
}

func parseDecimal(b []byte) (uint64, bool) {
	v, i, ok := scanDecimal(b, 0)
	return v, ok && i == len(b)
}

func parseHex(b []byte) (uint64, bool) {
	if len(b) >= 2 && b[0] == '0' && b[1] == 'x' {
		b = b[2:]
	}
	v, i, ok := scanHex(b, 0)
	return v, ok && i == len(b)
}

// scanDecimal parses the decimal digits at s[i:] up to the first
// non-digit and returns the value and the index after the digits; ok is
// false if there are none or the value overflows.
func scanDecimal(s []byte, i int) (v uint64, j int, ok bool) {
	for j = i; j < len(s) && s[j]-'0' <= 9; j++ {
		d := uint64(s[j] - '0')
		if v > (^uint64(0)-d)/10 {
			return 0, j, false
		}
		v = v*10 + d
	}
	return v, j, j > i
}

// scanHex is scanDecimal for hex digits of either case.
func scanHex(s []byte, i int) (v uint64, j int, ok bool) {
	for j = i; j < len(s); j++ {
		var d uint64
		switch c := s[j]; {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return v, j, j > i
		}
		if v > ^uint64(0)>>4 {
			return 0, j, false
		}
		v = v<<4 | d
	}
	return v, j, j > i
}

// StreamWriter encodes records one at a time, so producers (tracegen,
// traceconv) emit arbitrarily long traces in constant memory. Errors are
// sticky: the first failure is returned by every later call including
// Close.
type StreamWriter struct {
	bw     *bufio.Writer
	gz     *gzip.Writer
	format Format
	n      uint64
	buf    []byte
	err    error
}

// NewStreamWriter returns a writer emitting format to w, gzip-compressed
// when compress is set. Binary traces open with the format's magic
// header. Close must be called to flush buffered output (and terminate
// the gzip stream); the underlying writer is not closed.
func NewStreamWriter(w io.Writer, format Format, compress bool) *StreamWriter {
	sw := &StreamWriter{format: format}
	if compress {
		sw.gz = gzip.NewWriter(w)
		sw.bw = bufio.NewWriterSize(sw.gz, 1<<16)
	} else {
		sw.bw = bufio.NewWriterSize(w, 1<<16)
	}
	if format == FormatBinary {
		_, sw.err = sw.bw.Write(binaryMagic)
	}
	return sw
}

// Comment writes a '#' comment line into a text trace. Binary traces
// carry no comments; the call is a no-op there.
func (sw *StreamWriter) Comment(s string) error {
	if sw.err != nil || sw.format != FormatText {
		return sw.err
	}
	_, sw.err = fmt.Fprintf(sw.bw, "# %s\n", s)
	return sw.err
}

// Append encodes one record of one core.
func (sw *StreamWriter) Append(core int, r memtypes.Rec) error {
	if sw.err != nil {
		return sw.err
	}
	if core < 0 {
		sw.err = errorf("negative core %d", core)
		return sw.err
	}
	if sw.format == FormatBinary {
		hdr := uint64(core) << 1
		if r.Write {
			hdr |= 1
		}
		sw.buf = binary.AppendUvarint(sw.buf[:0], hdr)
		sw.buf = binary.AppendUvarint(sw.buf, r.Gap)
		sw.buf = binary.AppendUvarint(sw.buf, uint64(r.Addr))
		_, sw.err = sw.bw.Write(sw.buf)
	} else {
		rw := byte('R')
		if r.Write {
			rw = 'W'
		}
		sw.buf = strconv.AppendUint(sw.buf[:0], uint64(core), 10)
		sw.buf = append(sw.buf, ' ')
		sw.buf = strconv.AppendUint(sw.buf, r.Gap, 10)
		sw.buf = append(sw.buf, ' ')
		sw.buf = strconv.AppendUint(sw.buf, uint64(r.Addr), 16)
		sw.buf = append(sw.buf, ' ', rw, '\n')
		_, sw.err = sw.bw.Write(sw.buf)
	}
	if sw.err == nil {
		sw.n++
	}
	return sw.err
}

// Records returns how many records have been appended.
func (sw *StreamWriter) Records() uint64 { return sw.n }

// Close flushes buffered output and terminates the gzip stream, if any.
func (sw *StreamWriter) Close() error {
	if ferr := sw.bw.Flush(); sw.err == nil {
		sw.err = ferr
	}
	if sw.gz != nil {
		if gerr := sw.gz.Close(); sw.err == nil {
			sw.err = gerr
		}
	}
	return sw.err
}

// StreamReader replays a trace from an io.Reader in bounded memory: it
// decodes the global record stream ahead of the simulation and hands
// each core its records through a bounded lookahead window, never
// materializing the whole trace. When one core's replay runs far ahead of
// another's position in the file, up to window records per core are
// buffered; if the trace's interleave skew exceeds that, replay stops
// with an error (see Err) rather than buffering without bound.
//
// Decoding runs on a producer goroutine that fills a fixed ring of
// ringDepth batches of batchRecs records each; the consumer moves the
// records into the per-core queues one at a time, in file order. The
// reader's memory is therefore the window queues plus the fixed ring.
// The StreamReader's methods and its per-core streams must be used from
// one goroutine, which matches the simulator's single-threaded core
// loop; Close stops the producer.
type StreamReader struct {
	window int
	queues [][]memtypes.Rec // per-core FIFO: queues[c][heads[c]:] is pending
	heads  []int
	max    int    // high-water mark of any per-core queue, for tests/stats
	n      uint64 // records delivered to the queues
	eof    bool
	err    error

	ring *[ringDepth]batch
	full chan *batch   // decoded batches, in file order, to the consumer
	free chan *batch   // delivered batches, back to the producer
	stop chan struct{} // closed by Close
	done chan struct{} // closed when the producer exits
	cur  *batch        // batch being delivered: cur.recs[pos:cur.n] pending
	pos  int
}

// The decode-ahead ring: the producer decodes up to ringDepth batches of
// batchRecs records ahead of the consumer. Four batches keep the
// producer busy while the consumer drains one; a ring of two 512-record
// batches measured most of the overlap lost.
const (
	ringDepth = 4
	batchRecs = 1024
)

// batch is one run of decoded records in file order, and the error that
// ended decoding after them (io.EOF at a clean end of trace).
type batch struct {
	n     int
	err   error
	cores [batchRecs]int
	recs  [batchRecs]memtypes.Rec
}

// rings recycles the rings of closed StreamReaders, so a replay's
// allocations do not grow by a ring per replay.
var rings = sync.Pool{New: func() any { return new([ringDepth]batch) }}

// NewStreamReader opens a trace (any format, auto-detected) for
// streaming replay by maxCores cores and starts decoding it ahead.
// window bounds the per-core lookahead in records; <= 0 means
// DefaultWindow, and a window above MaxWindow is an error. The caller
// must Close the reader unless it drains the stream to its end or error.
func NewStreamReader(r io.Reader, maxCores, window int) (*StreamReader, error) {
	if window > MaxWindow {
		return nil, errorf("window must be at most %d records, got %d", MaxWindow, window)
	}
	dec, err := NewDecoder(r, maxCores)
	if err != nil {
		return nil, err
	}
	if window <= 0 {
		window = DefaultWindow
	}
	sr := &StreamReader{
		window: window,
		queues: make([][]memtypes.Rec, maxCores),
		heads:  make([]int, maxCores),
		ring:   rings.Get().(*[ringDepth]batch),
		full:   make(chan *batch, ringDepth),
		free:   make(chan *batch, ringDepth),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	for i := range sr.ring {
		sr.free <- &sr.ring[i]
	}
	go produce(dec, sr.full, sr.free, sr.stop, sr.done)
	return sr, nil
}

// produce decodes into free batches and sends them on full, in file
// order, until a batch ends with an error (io.EOF included) or stop is
// closed. It closes done on exit. Both channels hold the whole ring, so
// only waiting for a free batch blocks.
func produce(dec *Decoder, full chan<- *batch, free <-chan *batch, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	for {
		var b *batch
		// Check stop first: were both ready, select would pick at
		// random and might decode a batch more after Close.
		select {
		case <-stop:
			return
		default:
		}
		select {
		case b = <-free:
		case <-stop:
			return
		}
		b.n, b.err = dec.DecodeBatch(b.cores[:], b.recs[:])
		full <- b
		if b.err != nil {
			return
		}
	}
}

// Close stops the decode-ahead goroutine and waits for it to exit, so
// the input reader sees no Read once Close returns; a Read already in
// progress is waited for. A stream closed before its end reports an
// error from Err. Close may be called more than once.
func (sr *StreamReader) Close() {
	if sr.ring == nil {
		return
	}
	close(sr.stop)
	<-sr.done
	rings.Put(sr.ring)
	sr.ring, sr.cur = nil, nil
	if !sr.eof && sr.err == nil {
		sr.err = errorf("stream reader closed")
	}
}

// Source returns core's record stream.
func (sr *StreamReader) Source(core int) *CoreStream {
	return &CoreStream{sr: sr, core: core}
}

// Prime delivers the first record into its window, so callers can fail
// fast on an empty or immediately malformed trace before standing up
// expensive replay state. An empty trace is not an error here — check
// Records afterwards.
func (sr *StreamReader) Prime() error {
	if sr.n == 0 && !sr.eof && sr.err == nil {
		sr.pump()
	}
	return sr.err
}

// Err returns the decode or window-skew error that stopped replay, or
// nil after a clean end of trace. Callers must check it once every
// source has drained: per-core streams signal errors only as an early
// end of records.
func (sr *StreamReader) Err() error { return sr.err }

// Records returns how many records have been delivered to the cores'
// windows so far; records decoded ahead are not counted until then.
func (sr *StreamReader) Records() uint64 { return sr.n }

// MaxQueued returns the high-water mark of any core's lookahead queue —
// by construction at most the window.
func (sr *StreamReader) MaxQueued() int { return sr.max }

func (sr *StreamReader) queued(core int) int {
	return len(sr.queues[core]) - sr.heads[core]
}

// pump delivers the next decoded record into its core's queue; false
// once the stream is exhausted or errored.
func (sr *StreamReader) pump() bool {
	for sr.cur == nil || sr.pos == sr.cur.n {
		if sr.cur != nil {
			if err := sr.cur.err; err == io.EOF {
				sr.eof = true
				return false
			} else if err != nil {
				sr.err = err
				return false
			}
			sr.free <- sr.cur
		}
		sr.cur, sr.pos = <-sr.full, 0
	}
	core, rec := sr.cur.cores[sr.pos], sr.cur.recs[sr.pos]
	sr.pos++
	sr.n++
	if sr.queued(core) >= sr.window {
		sr.err = errorf("record %d: interleave skew exceeds the lookahead window: %d records of core %d buffered while other cores replay; rerun with a larger window", sr.n, sr.window, core)
		return false
	}
	q := sr.queues[core]
	// Reclaim the drained prefix once it dominates the backing array, so
	// the queue's footprint stays proportional to the window, not to the
	// records replayed.
	if h := sr.heads[core]; h >= 64 && h*2 >= len(q) {
		n := copy(q, q[h:])
		q = q[:n]
		sr.heads[core] = 0
	}
	sr.queues[core] = append(q, rec)
	if n := sr.queued(core); n > sr.max {
		sr.max = n
	}
	return true
}

// CoreStream serves one core's records from a shared StreamReader; it
// implements Source.
type CoreStream struct {
	sr   *StreamReader
	core int
}

// NextBatch implements Source: it pops up to len(dst) of core's records,
// delivering decoded records (buffering other cores' records within
// their windows) only until at least one is queued. It returns 0 at end of
// trace and after any decode or window error — the caller distinguishes
// the two via StreamReader.Err.
func (cs *CoreStream) NextBatch(dst []memtypes.Rec) int {
	sr := cs.sr
	if sr.err != nil || len(dst) == 0 {
		// A stream error ends every core's replay at once, including
		// cores with buffered records: partial data must not replay on.
		return 0
	}
	for sr.queued(cs.core) == 0 {
		if sr.eof {
			return 0
		}
		sr.pump()
		if sr.err != nil {
			return 0
		}
	}
	q := sr.queues[cs.core]
	n := copy(dst, q[sr.heads[cs.core]:])
	sr.heads[cs.core] += n
	if sr.heads[cs.core] == len(q) {
		sr.queues[cs.core] = q[:0]
		sr.heads[cs.core] = 0
	}
	return n
}
