// Package cpu implements the interval-based out-of-order core model used
// by the paper's evaluation (Genbrugge et al., "Interval simulation"):
// non-memory instructions retire at the issue width, LLC hits add their
// fixed latency, and LLC misses overlap up to the core's memory-level
// parallelism before the core stalls on the oldest outstanding miss.
//
// The issue width is the compile-time constant config.IssueWidth, a
// power of two, so retiring compute work is a shift and a mask. The MSHRs
// and the write buffer are min-heaps of completion times, each padded
// with one sentinel slot holding the largest Tick: a node with a left
// child always has a right one, so sifting picks the smaller child
// without a branch, and the sentinel is never picked.
package cpu

import (
	"math/bits"

	"hybridmem/internal/config"
	"hybridmem/internal/memtypes"
)

// issueWidth is config.IssueWidth as an unsigned constant: dividing by
// it and taking the remainder compile to a shift and a mask.
const issueWidth uint64 = config.IssueWidth

// Core models one out-of-order core. The zero value is not usable; use New.
type Core struct {
	// Time is the core's current cycle; it only moves forward.
	Time memtypes.Tick
	// Instructions retired so far.
	Instructions uint64

	computeRem  uint64                         // sub-cycle remainder of compute work
	outstanding []memtypes.Tick                // padded min-heap of miss completion times
	writeBuf    [writeBufLen + 1]memtypes.Tick // padded min-heap of write completion times
}

// writeBufLen is the number of write-buffer entries.
const writeBufLen = 16

// New creates a core with the given maximum number of overlapping
// outstanding misses (MSHRs / effective MLP), which must be at least 1.
func New(mlp int) *Core {
	c := new(Core)
	c.Reset(mlp)
	return c
}

// Reset returns c to New(mlp)'s state in place, keeping its MSHR heap
// when it has room for mlp misses.
func (c *Core) Reset(mlp int) {
	if mlp < 1 {
		panic("cpu: MLP must be at least 1")
	}
	out := c.outstanding
	if cap(out) > mlp {
		out = out[:mlp+1]
		clear(out)
	} else {
		out = make([]memtypes.Tick, mlp+1)
	}
	*c = Core{outstanding: out}
	out[mlp] = ^memtypes.Tick(0)
	c.writeBuf[writeBufLen] = ^memtypes.Tick(0)
}

// AdvanceCompute retires gap non-memory instructions at the issue width.
func (c *Core) AdvanceCompute(gap uint64) {
	c.Instructions += gap
	work := gap + c.computeRem
	c.Time += memtypes.Tick(work / issueWidth)
	c.computeRem = work % issueWidth
}

// RetireMemOp accounts one memory instruction (the access itself).
func (c *Core) RetireMemOp() { c.Instructions++ }

// AddLatency applies a fully exposed latency (e.g. an LLC hit).
func (c *Core) AddLatency(cycles memtypes.Tick) { c.Time += cycles }

// StallForMiss reserves an MSHR for a miss completing at done. If all
// MSHRs hold younger completions, the core first stalls until the oldest
// one resolves. This exposes miss latency once MLP is exhausted while
// letting up to MLP misses overlap.
func (c *Core) StallForMiss(done memtypes.Tick) {
	if wait := replaceMin(c.outstanding, done); wait > c.Time {
		c.Time = wait
	}
}

// StallForWrite reserves a write-buffer entry for a store or write-back
// completing at done. Stores normally retire without stalling, but a full
// write buffer applies backpressure — without it, write traffic would
// queue without bound at the memory devices.
func (c *Core) StallForWrite(done memtypes.Tick) {
	if wait := replaceMin(c.writeBuf[:], done); wait > c.Time {
		c.Time = wait
	}
}

// replaceMin replaces the earliest completion time of the padded min-heap
// h with done and returns the time it replaced. Only the multiset of
// times is observable (a stall waits for the minimum, a drain for the
// maximum), so the heap behaves exactly like a scan for the oldest slot.
// The borrow of h[m+1] - h[m] is 1 exactly when the right child is
// smaller; the sentinel past the last real slot is never smaller.
func replaceMin(h []memtypes.Tick, done memtypes.Tick) memtypes.Tick {
	n := len(h) - 1
	oldest := h[0]
	i := 0
	for {
		m := 2*i + 1
		if m >= n {
			break
		}
		_, right := bits.Sub64(uint64(h[m+1]), uint64(h[m]), 0)
		m += int(right)
		if h[m] >= done {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = done
	return oldest
}

// DrainMisses stalls until every outstanding miss has completed. Called at
// stream end so the final cycle count covers all issued work.
func (c *Core) DrainMisses() {
	for _, t := range c.outstanding[:c.MLP()] {
		if t > c.Time {
			c.Time = t
		}
	}
}

// MLP returns the core's outstanding-miss capacity.
func (c *Core) MLP() int { return len(c.outstanding) - 1 }
