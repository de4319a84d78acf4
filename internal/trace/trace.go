// Package trace defines the memory-trace formats and the streaming
// reader and writer that let the simulator run from captured traces
// (e.g. from Pin, as the paper's authors did) instead of the built-in
// synthetic workloads. Records are memtypes.Rec values throughout.
//
// Two encodings are supported, both optionally gzip-compressed; readers
// auto-detect compression and encoding from the stream's first bytes, so
// every consumer (NewDecoder, NewStreamReader, cmd/hybrid2sim,
// cmd/traceconv, hybridmem.ReplayTrace) accepts any of the four
// combinations.
//
// # Text format
//
// One record per line, blank lines and '#' comments ignored:
//
//	<core> <gap> <addr-hex> R|W
//
// core is the issuing core (0-7), gap the number of non-memory
// instructions preceding the access, addr the byte address (hex, with or
// without 0x), and R/W the access type. Records of one core must appear
// in program order; cores may interleave arbitrarily. Lines — comments
// included — are limited to 64 KB, which keeps decoding bounded-memory
// on arbitrary inputs.
//
// # Binary format
//
// A compact varint encoding, roughly 2-3x smaller than text before
// compression. The stream opens with a 4-byte header:
//
//	'H' 'M' 'T' <version>
//
// where <version> is currently 1. Records follow back to back until EOF,
// each three unsigned varints (encoding/binary Uvarint):
//
//	uvarint  core<<1 | write   (write is 1 for stores, 0 for loads)
//	uvarint  gap               (non-memory instructions before the access)
//	uvarint  addr              (byte address)
//
// A record cut off mid-varint is an error (io.ErrUnexpectedEOF); note
// that the format carries no record count or trailer, so truncation at
// an exact record boundary is indistinguishable from a shorter trace.
//
// # Record order
//
// Both formats carry records in one global stream. Writers (Interleaver
// feeding a StreamWriter, as cmd/tracegen does) order records by
// cumulative per-core instruction position — each record advances its
// core by Gap+1 instructions — which approximates the capture-time
// interleaving of an in-order retirement, instead of imposing an
// artificial round-robin. Streaming readers rely on the interleaving
// being approximately fair: StreamReader buffers at most a bounded
// lookahead window per core, never more than MaxWindow records, and
// errors if the skew between cores exceeds it.
//
// # Sources
//
// Every per-core record stream — a workload generator, a StreamReader's
// CoreStream — is a Source (memtypes.Source): records are pulled in
// batches with NextBatch, and the records a source yields do not depend
// on how many are pulled per call. Interleaver, the simulator's run loop
// and any other consumer may therefore batch as suits them without
// changing a record, a written byte or a simulated number.
package trace

import (
	"fmt"

	"hybridmem/internal/memtypes"
)

// Source is memtypes.Source: one core's records in program order,
// pulled in batches. The alias is kept because the benchmark module
// names it.
type Source = memtypes.Source

// interleaveBatch is the per-core record buffer of an Interleaver.
const interleaveBatch = 64

// Interleaver merges per-core record sources into a single globally
// ordered stream: the next record is always the pending one with the
// lowest cumulative instruction position (ties to the lowest core) —
// the order an in-order machine would retire them. tracegen serializes
// through it so written traces preserve a capture-like interleaving.
type Interleaver struct {
	cores []interleaveCore
}

// interleaveCore is one source's state: its pending record, the
// instruction position that record retires at, and the batch the next
// pending records come from.
type interleaveCore struct {
	src     Source
	pending memtypes.Rec
	pos     uint64
	live    bool
	buf     []memtypes.Rec
	head, n int
}

// NewInterleaver builds an interleaver over one source per core. Sources
// are pulled lazily, a small batch per core at a time, so interleaving
// is constant-memory.
func NewInterleaver(srcs []Source) *Interleaver {
	it := &Interleaver{cores: make([]interleaveCore, len(srcs))}
	bufs := make([]memtypes.Rec, len(srcs)*interleaveBatch)
	for c := range it.cores {
		it.cores[c] = interleaveCore{src: srcs[c], buf: bufs[c*interleaveBatch : (c+1)*interleaveBatch]}
		it.refill(c)
	}
	return it
}

// refill makes core c's next record pending, pulling a new batch from
// its source when the current one is used up.
func (it *Interleaver) refill(c int) {
	ic := &it.cores[c]
	if ic.head == ic.n {
		ic.n = ic.src.NextBatch(ic.buf)
		ic.head = 0
		if ic.n == 0 {
			ic.live = false
			return
		}
	}
	ic.live = true
	ic.pending = ic.buf[ic.head]
	ic.head++
	ic.pos += ic.pending.Gap + 1
}

// Next returns the next record in global order; ok is false once every
// source is exhausted.
func (it *Interleaver) Next() (core int, r memtypes.Rec, ok bool) {
	sel := -1
	for c := range it.cores {
		if it.cores[c].live && (sel < 0 || it.cores[c].pos < it.cores[sel].pos) {
			sel = c
		}
	}
	if sel < 0 {
		return 0, memtypes.Rec{}, false
	}
	r = it.cores[sel].pending
	it.refill(sel)
	return sel, r, true
}

// errorf builds every package error with a uniform prefix.
func errorf(format string, args ...any) error {
	return fmt.Errorf("trace: "+format, args...)
}
