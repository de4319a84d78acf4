package trace

// The byte-at-a-time decoder that DecodeBatch's in-buffer parsers
// replaced, kept as the reference FuzzDecode compares them with: it reads
// binary varints a byte at a time with binary.ReadUvarint and text lines
// with ReadSlice, splitting each line into fields before parsing them.
// It runs on a Decoder's input and counters, so Records and the
// positioned errors read the same for both.

import (
	"bufio"
	"encoding/binary"
	"io"
	"math/bits"
	"strconv"

	"hybridmem/internal/memtypes"
)

// byteDecode returns the next record and its issuing core, io.EOF at a
// clean end of trace, or a positioned error, as Decode did before
// DecodeBatch parsed every record.
func (d *Decoder) byteDecode() (core int, rec memtypes.Rec, err error) {
	if d.format == FormatBinary {
		return d.byteDecodeBinary()
	}
	return d.byteDecodeText()
}

func (d *Decoder) byteDecodeBinary() (int, memtypes.Rec, error) {
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
	gap, err := d.byteReadField()
	if err != nil {
		return 0, memtypes.Rec{}, err
	}
	addr, err := d.byteReadField()
	if err != nil {
		return 0, memtypes.Rec{}, err
	}
	if !d.byteCount(gap) {
		return 0, memtypes.Rec{}, errorf("record %d: gap %d takes the trace past 2^64-1 instructions", d.n+1, gap)
	}
	d.n++
	return core, memtypes.Rec{Gap: gap, Addr: memtypes.Addr(addr), Write: hdr&1 == 1}, nil
}

// byteCount adds the instructions of a record with the given gap to the
// trace's total. It reports false, leaving the total unchanged, if the
// total would pass 2^64-1.
func (d *Decoder) byteCount(gap uint64) bool {
	sum, carry := bits.Add64(d.instr, gap, 1)
	if carry != 0 {
		return false
	}
	d.instr = sum
	return true
}

// byteReadField reads one non-leading varint of a binary record, where EOF
// means the record was cut short.
func (d *Decoder) byteReadField() (uint64, error) {
	v, err := binary.ReadUvarint(d.br)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return 0, errorf("record %d: truncated: %w", d.n+1, err)
	}
	return v, nil
}

func (d *Decoder) byteDecodeText() (int, memtypes.Rec, error) {
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
		core, rec, perr := d.byteParseLine(s)
		if perr != nil {
			return 0, memtypes.Rec{}, perr
		}
		if !d.byteCount(rec.Gap) {
			return 0, memtypes.Rec{}, errorf("line %d: gap %d takes the trace past 2^64-1 instructions", d.line, rec.Gap)
		}
		d.n++
		return core, rec, nil
	}
}

// byteParseLine parses one non-comment trace line in place. It works on the
// bufio-owned byte slice without converting to string, so steady-state
// text decoding is allocation-free.
func (d *Decoder) byteParseLine(s []byte) (int, memtypes.Rec, error) {
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

// parseDecimal and parseHex parse a whole field with strconv, not with
// the decoder's digit scanners, so the reference shares no digit rule
// with the parsers it checks.
func parseDecimal(b []byte) (uint64, bool) {
	v, err := strconv.ParseUint(string(b), 10, 64)
	return v, err == nil
}

func parseHex(b []byte) (uint64, bool) {
	if len(b) >= 2 && b[0] == '0' && b[1] == 'x' {
		b = b[2:]
	}
	v, err := strconv.ParseUint(string(b), 16, 64)
	return v, err == nil
}
