package trace

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"

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

// Decode returns the next record and its issuing core. It returns io.EOF
// at a clean end of trace and a positioned error (line or record number)
// on malformed input, including a truncated final binary record.
func (d *Decoder) Decode() (core int, rec memtypes.Rec, err error) {
	if d.format == FormatBinary {
		return d.decodeBinary()
	}
	return d.decodeText()
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
	d.n++
	return core, memtypes.Rec{Gap: gap, Addr: memtypes.Addr(addr), Write: hdr&1 == 1}, nil
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
	if len(b) == 0 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if v > (^uint64(0)-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

func parseHex(b []byte) (uint64, bool) {
	if len(b) >= 2 && b[0] == '0' && b[1] == 'x' {
		b = b[2:]
	}
	if len(b) == 0 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, false
		}
		if v > ^uint64(0)>>4 {
			return 0, false
		}
		v = v<<4 | d
	}
	return v, true
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
		_, sw.err = fmt.Fprintf(sw.bw, "%d %d %x %c\n", core, r.Gap, uint64(r.Addr), rw)
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

// StreamReader replays a trace from an io.Reader in constant memory: it
// decodes the global record stream on demand and hands each core its
// records through a bounded lookahead window, never materializing the
// whole trace. When one core's replay runs far ahead of
// another's position in the file, up to window records per core are
// buffered; if the trace's interleave skew exceeds that, replay stops
// with an error (see Err) rather than buffering without bound.
//
// A StreamReader and its per-core streams must be used from one
// goroutine, which matches the simulator's single-threaded core loop.
type StreamReader struct {
	dec    *Decoder
	window int
	queues [][]memtypes.Rec // per-core FIFO: queues[c][heads[c]:] is pending
	heads  []int
	max    int // high-water mark of any per-core queue, for tests/stats
	eof    bool
	err    error
}

// NewStreamReader opens a trace (any format, auto-detected) for
// streaming replay by maxCores cores. window bounds the per-core
// lookahead in records; <= 0 means DefaultWindow, and a window above
// MaxWindow is an error.
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
	return &StreamReader{
		dec:    dec,
		window: window,
		queues: make([][]memtypes.Rec, maxCores),
		heads:  make([]int, maxCores),
	}, nil
}

// Source returns core's record stream.
func (sr *StreamReader) Source(core int) *CoreStream {
	return &CoreStream{sr: sr, core: core}
}

// Prime decodes the first record into its window, so callers can fail
// fast on an empty or immediately malformed trace before standing up
// expensive replay state. An empty trace is not an error here — check
// Records afterwards.
func (sr *StreamReader) Prime() error {
	if sr.dec.Records() == 0 && !sr.eof && sr.err == nil {
		sr.pump()
	}
	return sr.err
}

// Err returns the decode or window-skew error that stopped replay, or
// nil after a clean end of trace. Callers must check it once every
// source has drained: per-core streams signal errors only as an early
// end of records.
func (sr *StreamReader) Err() error { return sr.err }

// Records returns how many records have been decoded so far.
func (sr *StreamReader) Records() uint64 { return sr.dec.Records() }

// MaxQueued returns the high-water mark of any core's lookahead queue —
// by construction at most the window.
func (sr *StreamReader) MaxQueued() int { return sr.max }

func (sr *StreamReader) queued(core int) int {
	return len(sr.queues[core]) - sr.heads[core]
}

// pump decodes one record into its core's queue; false once the stream
// is exhausted or errored.
func (sr *StreamReader) pump() bool {
	core, rec, err := sr.dec.Decode()
	if err == io.EOF {
		sr.eof = true
		return false
	}
	if err != nil {
		sr.err = err
		return false
	}
	if sr.queued(core) >= sr.window {
		sr.err = errorf("record %d: interleave skew exceeds the lookahead window: %d records of core %d buffered while other cores replay; rerun with a larger window", sr.dec.Records(), sr.window, core)
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
// pumping the shared decoder (buffering other cores' records within their
// windows) only until at least one is queued. It returns 0 at end of
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
