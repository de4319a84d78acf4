// Package sim wires the interval cores, the shared LLC and one memory
// organization together and runs a workload to completion, producing the
// per-run metrics every figure of the paper is built from. It reaches
// the organization only through memtypes.MemorySystem and imports no
// design package.
package sim

import (
	"hybridmem/internal/cachesim"
	"hybridmem/internal/config"
	"hybridmem/internal/cpu"
	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
	"hybridmem/internal/stats"
	"hybridmem/internal/telemetry"
	"hybridmem/internal/workload"
)

// Result holds the measurements of one (workload, design) run.
type Result struct {
	Workload string
	Design   string

	Cycles       memtypes.Tick
	Instructions uint64
	IPC          float64

	LLCAccesses uint64
	LLCMisses   uint64
	MPKI        float64

	Mem memtypes.MemStats // copy of the design's traffic counters

	NMEnergyNJ float64
	FMEnergyNJ float64

	// Demand read-miss latency distribution (cycles), as seen by the
	// cores: mean and percentiles from a log2-bucketed stats.Histogram.
	LatMean float64
	LatP50  memtypes.Tick
	LatP99  memtypes.Tick
}

// ServedNMFrac returns the fraction of memory requests served from NM.
func (r Result) ServedNMFrac() float64 {
	if r.Mem.Requests == 0 {
		return 0
	}
	return float64(r.Mem.ServedNM) / float64(r.Mem.Requests)
}

// DynamicEnergyNJ returns total dynamic memory energy.
func (r Result) DynamicEnergyNJ() float64 { return r.NMEnergyNJ + r.FMEnergyNJ }

// Source is memtypes.Source: one core's records, pulled in batches. The
// alias is kept because the benchmark module names it.
type Source = memtypes.Source

// batchLen is the per-core record buffer of the run loop: large enough to
// amortize batched decode, small enough (1.5 KB per core) to stay cache
// resident.
const batchLen = 64

// MLPFor derives the effective memory-level parallelism from a workload's
// spatial behaviour: streaming workloads keep many independent misses in
// flight, pointer-chasing ones serialize on dependent loads. Trace
// replays of a synthetic workload must pass the same value to RunSources
// to reproduce the direct run.
func MLPFor(spec workload.Spec) int {
	mlp := int(1 + spec.SeqRun/4)
	if mlp < 1 {
		mlp = 1
	}
	if mlp > 8 {
		mlp = 8
	}
	return mlp
}

// Run executes spec on the given memory system. nm and fm are the devices
// the design was built over (nm may be nil for the no-NM baseline); they
// are only read for energy accounting.
func Run(spec workload.Spec, ms memtypes.MemorySystem, nm, fm *memsys.Device, sys config.System) Result {
	return RunSampled(spec, ms, nm, fm, sys, nil)
}

// RunSampled is Run with an optional telemetry sampler attached: smp
// observes the run as a series of windowed epochs (see
// internal/telemetry). A nil smp is exactly Run — the sampler is
// passive and never changes the Result.
func RunSampled(spec workload.Spec, ms memtypes.MemorySystem, nm, fm *memsys.Device, sys config.System, smp *telemetry.Sampler) Result {
	srcs := make([]Source, config.Cores)
	for i := range srcs {
		srcs[i] = workload.NewStream(spec, i, sys.Scale, sys.InstrPerCore, sys.Seed)
	}
	return RunSourcesSampled(spec.Name, srcs, MLPFor(spec), ms, nm, fm, sys, smp)
}

// RunSources executes one explicit trace source per core — the entry
// point for replaying captured traces. mlp bounds each core's overlapped
// misses.
func RunSources(name string, srcs []Source, mlp int, ms memtypes.MemorySystem, nm, fm *memsys.Device, sys config.System) Result {
	return RunSourcesSampled(name, srcs, mlp, ms, nm, fm, sys, nil)
}

// RunSourcesSampled is RunSources with an optional telemetry sampler;
// nil smp is exactly RunSources.
func RunSourcesSampled(name string, srcs []Source, mlp int, ms memtypes.MemorySystem, nm, fm *memsys.Device, sys config.System, smp *telemetry.Sampler) Result {
	return runLoop(name, srcs, mlp, ms, nm, fm, sys, smp)
}

// coreState is one core's slot in the run loop: its source and the
// refillable record buffer.
type coreState struct {
	src  Source
	buf  []memtypes.Rec
	head int
	n    int
}

// slot is one scheduler heap entry: a core's index and its time, copied
// so that ordering the heap reads no core state.
type slot struct {
	t memtypes.Tick
	i int32
}

// before orders slots by (time, index): the heap's minimum is exactly the
// core the old linear scan selected, the lowest-indexed core among those
// with the minimum time.
func (a slot) before(b slot) bool { return a.t < b.t || a.t == b.t && a.i < b.i }

// siftDown places x in the min-heap h whose root slot is vacant: after
// the selected core advanced (x is that core with its new time) or after
// a pop (x is the heap's former last entry).
func siftDown(h []slot, x slot) {
	i := 0
	for {
		m := 2*i + 1
		if m >= len(h) {
			break
		}
		if r := m + 1; r < len(h) && h[r].before(h[m]) {
			m = r
		}
		if x.before(h[m]) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = x
}

// maxCoreTime returns the latest core time — the run's cycle count so
// far. Called only at epoch boundaries, so its O(cores) cost is off
// the per-record path.
func maxCoreTime(cores []*cpu.Core) memtypes.Tick {
	var t memtypes.Tick
	for _, c := range cores {
		if c.Time > t {
			t = c.Time
		}
	}
	return t
}

// runLoop is the per-record simulation loop; every design runs through
// it behind the memtypes.MemorySystem interface, one dynamic call per
// memory access. The scheduler is a min-heap of (core time, index) slots,
// replacing the O(cores) scan per record; selection order is
// bit-identical to the scan because both pick the lexicographic minimum,
// and only the selected core's time ever changes. Each core's records
// arrive batchLen at a time through its Source; a source's records do
// not depend on pull granularity, so the batching moves no result. The
// steady state allocates nothing: record buffers, heap and core state
// are preallocated, and the histogram is a fixed array. The telemetry
// sampler is optional and passive: with smp nil the per-record cost is
// one predictable branch and the Result is unchanged either way.
func runLoop(name string, srcs []Source, mlp int, ms memtypes.MemorySystem, nm, fm *memsys.Device, sys config.System, smp *telemetry.Sampler) Result {
	llc := cachesim.New(sys.LLCBytes, config.LLCAssoc, memtypes.CPULineBytes)
	var lat stats.Histogram

	// Telemetry boundary state: retired instructions mirror the cores'
	// own counting (Gap non-memory instructions + 1 memory op per
	// record), sNext is the next epoch boundary.
	var sInstr, sNext uint64
	if smp != nil {
		sNext = smp.WindowInstr()
	}

	n := len(srcs)
	cores := make([]*cpu.Core, n)
	st := make([]coreState, n)
	bufs := make([]memtypes.Rec, n*batchLen)
	heap := make([]slot, n)
	for i := range cores {
		cores[i] = cpu.New(config.IssueWidth, mlp)
		st[i] = coreState{src: srcs[i], buf: bufs[i*batchLen : (i+1)*batchLen]}
		heap[i] = slot{i: int32(i)}
	}
	// The initial heap [0..n-1] is valid: all times are zero and parents
	// have smaller indices than their children.

	for len(heap) > 0 {
		// Advance the earliest core: keeps memory-system calls in
		// near-time order so device contention is modeled consistently.
		sel := heap[0].i
		cs := &st[sel]
		c := cores[sel]
		if cs.head == cs.n {
			cs.n = cs.src.NextBatch(cs.buf)
			cs.head = 0
			if cs.n == 0 {
				c.DrainMisses()
				last := len(heap) - 1
				x := heap[last]
				heap = heap[:last]
				if last > 0 {
					siftDown(heap, x)
				}
				continue
			}
		}
		r := cs.buf[cs.head]
		cs.head++

		c.AdvanceCompute(r.Gap)
		c.RetireMemOp()
		c.AddLatency(config.LLCLatency)
		hit, victim, evicted := llc.Access(r.Addr, r.Write)
		if !hit {
			// Write-allocate: the fill is a read either way. Loads stall
			// the core through the MSHRs; stores retire through the
			// write buffer, which applies backpressure when full.
			fill := ms.Access(c.Time, r.Addr, false)
			if r.Write {
				c.StallForWrite(fill)
			} else {
				lat.Add(uint64(fill - c.Time))
				if smp != nil {
					smp.Latency(uint64(fill - c.Time))
				}
				c.StallForMiss(fill)
			}
		}
		if evicted && victim.Dirty {
			c.StallForWrite(ms.Access(c.Time, victim.Addr, true))
		}
		if !hit && sys.NextLinePrefetch {
			// Next-line prefetch: fill addr+64 if absent; the fill does
			// not stall the core, and its dirty victim writes back.
			next := r.Addr + memtypes.CPULineBytes
			if pHit, pVictim, pEvicted := llc.Access(next, false); !pHit {
				ms.Access(c.Time, next, false)
				if pEvicted && pVictim.Dirty {
					ms.Access(c.Time, pVictim.Addr, true)
				}
			}
		}
		if smp != nil {
			sInstr += r.Gap + 1
			if sInstr >= sNext {
				smp.Flush(sInstr, uint64(maxCoreTime(cores)), llc.Accesses, llc.Misses, ms.Stats())
				w := smp.WindowInstr()
				sNext = sInstr - sInstr%w + w
			}
		}
		if len(heap) > 1 {
			siftDown(heap, slot{t: c.Time, i: sel})
		}
	}

	var cycles memtypes.Tick
	var instr uint64
	for _, c := range cores {
		if c.Time > cycles {
			cycles = c.Time
		}
		instr += c.Instructions
	}
	ms.Finish(cycles)
	// Close the final (possibly partial) epoch after Finish so flushed
	// interval work lands in the series and its totals reconcile with
	// the Result. A run that ended exactly on a boundary flushes nothing.
	if smp != nil {
		smp.Flush(instr, uint64(cycles), llc.Accesses, llc.Misses, ms.Stats())
	}

	res := Result{
		Workload:     name,
		Design:       ms.Name(),
		Cycles:       cycles,
		Instructions: instr,
		LLCAccesses:  llc.Accesses,
		LLCMisses:    llc.Misses,
		Mem:          *ms.Stats(),
	}
	if cycles > 0 {
		res.IPC = float64(instr) / float64(cycles)
	}
	if instr > 0 {
		res.MPKI = float64(llc.Misses) / (float64(instr) / 1000)
	}
	if nm != nil {
		res.NMEnergyNJ = nm.DynamicEnergyNanoJ()
	}
	if fm != nil {
		res.FMEnergyNJ = fm.DynamicEnergyNanoJ()
	}
	res.LatMean = lat.Mean()
	res.LatP50 = memtypes.Tick(lat.Percentile(0.50))
	res.LatP99 = memtypes.Tick(lat.Percentile(0.99))
	return res
}
