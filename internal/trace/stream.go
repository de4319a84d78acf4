package trace

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
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
	end        error  // io.EOF or the read error once the input has ended
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

// Decode returns the next record and its issuing core: it is DecodeBatch
// of one record. It returns io.EOF at a clean end of trace and a
// positioned error (line or record number) on malformed input,
// including a truncated final binary record and a record whose gap
// takes the trace past 2^64-1 instructions.
func (d *Decoder) Decode() (core int, rec memtypes.Rec, err error) {
	var cores [1]int
	var recs [1]memtypes.Rec
	if _, err := d.DecodeBatch(cores[:], recs[:]); err != nil {
		return 0, memtypes.Rec{}, err
	}
	return cores[0], recs[0], nil
}

// DecodeBatch decodes up to min(len(cores), len(recs)) records into recs,
// each with its issuing core at the same index of cores, and returns how
// many it decoded. It returns fewer only with a non-nil error: io.EOF at
// a clean end of trace, or the positioned error of the record after the
// n decoded ones.
//
// Records are parsed straight from the bufio buffer, by one parser per
// encoding. A record or line cut by the buffer's edge is parsed again
// once fill has read more input behind it, so neither the records nor
// the errors depend on how the input is split into reads.
func (d *Decoder) DecodeBatch(cores []int, recs []memtypes.Rec) (int, error) {
	want := min(len(cores), len(recs))
	if d.format == FormatBinary {
		return d.scanBinary(cores[:want], recs[:want])
	}
	return d.scanText(cores[:want], recs[:want])
}

// fill reads more input behind the buffered bytes, which hold no
// complete record or line. It returns nil once at least one more byte is
// buffered, and bufio.ErrBufferFull if the buffer is already full.
// Otherwise the input has ended, and it returns io.EOF or the read
// error, as every later call does.
func (d *Decoder) fill() error {
	if d.end != nil {
		return d.end
	}
	_, err := d.br.Peek(d.br.Buffered() + 1)
	if err != bufio.ErrBufferFull {
		d.end = err
	}
	return err
}

// errVarintOverflow is the error of a varint longer than 64 bits, worded
// as encoding/binary words it.
var errVarintOverflow = errors.New("binary: varint overflows a 64-bit integer")

// scanBinary parses binary records from the bufio buffer into cores and
// recs until both are full or it returns an error. A record cut by the
// buffer's edge waits for fill; one cut by the end of input is
// truncated.
func (d *Decoder) scanBinary(cores []int, recs []memtypes.Rec) (int, error) {
	n := 0
	for {
		buf, _ := d.br.Peek(d.br.Buffered())
		off, instr, start := 0, d.instr, n
		// The loop only stops at a record it cannot take; the values
		// of that record's fields then say why.
		var hdr, gap, addr uint64
		var k1, k2, k3 int
		for n < len(recs) {
			hdr, k1 = binary.Uvarint(buf[off:])
			// Range-check before the int conversion: a corrupt header
			// varint must be a positioned error on every platform, not a
			// 32-bit truncation that mis-attributes the record.
			if k1 <= 0 || hdr>>1 >= uint64(d.maxCores) {
				break
			}
			if gap, k2 = binary.Uvarint(buf[off+k1:]); k2 <= 0 {
				break
			}
			if addr, k3 = binary.Uvarint(buf[off+k1+k2:]); k3 <= 0 {
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
		d.n += uint64(n - start)
		d.instr = instr
		// field is the varint (0 header, 1 gap, 2 address) that did not
		// decode, at is where it starts in buf and k is binary.Uvarint's
		// length for it.
		var field, at, k int
		switch {
		case n == len(recs):
			return n, nil
		case k1 <= 0:
			field, at, k = 0, off, k1
		case hdr>>1 >= uint64(d.maxCores):
			return n, errorf("record %d: core %d out of range [0,%d)", d.n+1, hdr>>1, d.maxCores)
		case k2 <= 0:
			field, at, k = 1, off+k1, k2
		case k3 <= 0:
			field, at, k = 2, off+k1+k2, k3
		default:
			return n, errorf("record %d: gap %d takes the trace past 2^64-1 instructions", d.n+1, gap)
		}
		var err error
		if k < 0 || len(buf)-at >= binary.MaxVarintLen64 {
			// Ten continuation bytes overflow whatever follows, as
			// binary.ReadUvarint has it.
			err = errVarintOverflow
		} else if err = d.fill(); err == nil {
			continue // the record was cut by the buffer's edge
		} else if err == io.EOF {
			if off == len(buf) {
				return n, io.EOF
			}
			err = io.ErrUnexpectedEOF
		}
		if field > 0 {
			return n, errorf("record %d: truncated: %w", d.n+1, err)
		}
		return n, errorf("record %d: %w", d.n+1, err)
	}
}

// scanText parses text lines from the bufio buffer into cores and recs,
// skipping blank and comment lines, until both are full or it returns
// an error. A line cut by the buffer's edge waits for fill; at the end
// of input the bytes after the last '\n' are the final line.
func (d *Decoder) scanText(cores []int, recs []memtypes.Rec) (int, error) {
	n := 0
	buf, _ := d.br.Peek(d.br.Buffered())
	off := 0
	for n < len(recs) {
		line, next := buf[off:], 0
		if j := bytes.IndexByte(line, '\n'); j >= 0 {
			line, next = line[:j], off+j+1
		} else {
			d.br.Discard(off)
			err := d.fill()
			buf, _ = d.br.Peek(d.br.Buffered())
			off = 0
			if err == nil {
				continue
			}
			if err == bufio.ErrBufferFull {
				// A valid record line is tens of bytes; one outgrowing
				// the 64 KB buffer is garbage input (e.g. a newline-free
				// blob misdetected as text) that fails fast instead of
				// being buffered in full, so the decoder's memory stays
				// bounded.
				return n, errorf("line %d: longer than %d bytes", d.line+1, d.br.Size())
			}
			if err != io.EOF {
				// A transport failure (e.g. a corrupt gzip stream)
				// surfaces as itself, not as a parse error on the
				// fragment read before it.
				return n, errorf("%w", err)
			}
			if len(buf) == 0 {
				return n, io.EOF
			}
			line, next = buf, len(buf)
		}
		d.line++
		core, rec, err := d.parseLine(line)
		if err != nil {
			return n, err
		}
		off = next
		if core < 0 {
			continue
		}
		sum, carry := bits.Add64(d.instr, rec.Gap, 1)
		if carry != 0 {
			return n, errorf("line %d: gap %d takes the trace past 2^64-1 instructions", d.line, rec.Gap)
		}
		d.instr = sum
		d.n++
		cores[n], recs[n] = core, rec
		n++
	}
	d.br.Discard(off)
	return n, nil
}

// parseLine parses the text line s, without its '\n', in one pass over
// its bytes and without converting them to a string, so decoding text
// allocates nothing. core is -1 for a blank or comment line.
func (d *Decoder) parseLine(s []byte) (core int, rec memtypes.Rec, err error) {
	i := skipSpaces(s, 0)
	if i == len(s) || s[i] == '#' {
		return -1, rec, nil
	}
	if s[i] == '+' {
		i++
	}
	cv, i, ok := scanDecimal(s, i)
	if !ok || cv >= uint64(d.maxCores) || !fieldEnd(s, i) {
		return 0, rec, d.lineError(s, 0)
	}
	if rec.Gap, i, ok = scanDecimal(s, skipSpaces(s, i)); !ok || !fieldEnd(s, i) {
		return 0, rec, d.lineError(s, 1)
	}
	i = skipSpaces(s, i)
	if i+1 < len(s) && s[i] == '0' && s[i+1] == 'x' {
		i += 2
	}
	addr, i, ok := scanHex(s, i)
	if !ok || !fieldEnd(s, i) {
		return 0, rec, d.lineError(s, 2)
	}
	rec.Addr = memtypes.Addr(addr)
	if i = skipSpaces(s, i); i == len(s) || !fieldEnd(s, i+1) {
		return 0, rec, d.lineError(s, 3)
	}
	switch s[i] {
	case 'R', 'r':
	case 'W', 'w':
		rec.Write = true
	default:
		return 0, rec, d.lineError(s, 3)
	}
	if skipSpaces(s, i+1) != len(s) {
		return 0, rec, d.lineError(s, 4)
	}
	return int(cv), rec, nil
}

// fieldNames names a text line's fields in errors.
var fieldNames = [4]string{"core", "gap", "address", "access type"}

// lineError is the error of the line s whose field f (4 for a fifth)
// does not parse: the field count if it is not four, else field f.
func (d *Decoder) lineError(s []byte, f int) error {
	var fields [4][]byte
	nf := 0
	for i := skipSpaces(s, 0); i < len(s); i = skipSpaces(s, i) {
		j := i
		for j < len(s) && !isSpaceByte(s[j]) {
			j++
		}
		if nf < len(fields) {
			fields[nf] = s[i:j]
		}
		nf++
		i = j
	}
	if nf != len(fields) {
		return errorf("line %d: want 4 fields, got %d", d.line, nf)
	}
	return errorf("line %d: bad %s %q", d.line, fieldNames[f], fields[f])
}

func isSpaceByte(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

// skipSpaces returns the index of the first byte at or after i in s that
// is not a space.
func skipSpaces(s []byte, i int) int {
	for i < len(s) && isSpaceByte(s[i]) {
		i++
	}
	return i
}

// fieldEnd reports whether a field ends at s[i]: at a space or the end
// of the line.
func fieldEnd(s []byte, i int) bool {
	return i == len(s) || isSpaceByte(s[i])
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
	if sr.queued(core) >= sr.window {
		sr.err = errorf("record %d: interleave skew exceeds the lookahead window: %d records of core %d buffered while other cores replay; rerun with a larger window", sr.n+1, sr.window, core)
		return false
	}
	sr.n++
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
