// Package cpu implements the interval-based out-of-order core model used
// by the paper's evaluation (Genbrugge et al., "Interval simulation"):
// non-memory instructions retire at the issue width, LLC hits add their
// fixed latency, and LLC misses overlap up to the core's memory-level
// parallelism before the core stalls on the oldest outstanding miss.
package cpu

import "hybridmem/internal/memtypes"

// Core models one out-of-order core. The zero value is not usable; use New.
type Core struct {
	// Time is the core's current cycle; it only moves forward.
	Time memtypes.Tick
	// Instructions retired so far.
	Instructions uint64

	issueWidth  int
	computeRem  uint64          // sub-cycle remainder of compute work
	outstanding []memtypes.Tick // min-heap of miss completion times
	writeBuf    []memtypes.Tick // min-heap of write completion times
}

// New creates a core with the given issue width and maximum number of
// overlapping outstanding misses (MSHRs / effective MLP). Both must be at
// least 1.
func New(issueWidth, mlp int) *Core {
	if issueWidth < 1 || mlp < 1 {
		panic("cpu: issue width and MLP must be at least 1")
	}
	return &Core{
		issueWidth:  issueWidth,
		outstanding: make([]memtypes.Tick, mlp),
		writeBuf:    make([]memtypes.Tick, 16),
	}
}

// AdvanceCompute retires gap non-memory instructions at the issue width.
func (c *Core) AdvanceCompute(gap uint64) {
	c.Instructions += gap
	work := gap + c.computeRem
	c.Time += memtypes.Tick(work / uint64(c.issueWidth))
	c.computeRem = work % uint64(c.issueWidth)
}

// RetireMemOp accounts one memory instruction (the access itself).
func (c *Core) RetireMemOp() { c.Instructions++ }

// AddLatency applies a fully exposed latency (e.g. an LLC hit).
func (c *Core) AddLatency(cycles memtypes.Tick) { c.Time += cycles }

// StallForMiss reserves an MSHR for a miss completing at done. If all
// MSHRs hold younger completions, the core first stalls until the oldest
// one resolves. This exposes miss latency once MLP is exhausted while
// letting up to len(outstanding) misses overlap.
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
	if wait := replaceMin(c.writeBuf, done); wait > c.Time {
		c.Time = wait
	}
}

// replaceMin replaces the earliest completion time of the min-heap h with
// done and returns the time it replaced. Only the multiset of times is
// observable (a stall waits for the minimum, a drain for the maximum), so
// the heap behaves exactly like a scan for the oldest slot.
func replaceMin(h []memtypes.Tick, done memtypes.Tick) memtypes.Tick {
	oldest := h[0]
	i := 0
	for {
		m := 2*i + 1
		if m >= len(h) {
			break
		}
		if r := m + 1; r < len(h) && h[r] < h[m] {
			m = r
		}
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
	for _, t := range c.outstanding {
		if t > c.Time {
			c.Time = t
		}
	}
}

// MLP returns the core's outstanding-miss capacity.
func (c *Core) MLP() int { return len(c.outstanding) }
