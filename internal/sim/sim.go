// Package sim wires the interval cores, the shared LLC and one memory
// organization together and runs a workload to completion, producing the
// per-run metrics every figure of the paper is built from. It reaches
// the organization only through memtypes.MemorySystem and imports no
// design package. The run loop always advances the earliest core, the
// lowest-indexed on ties, so the organization sees requests in time
// order; a branch-free scan over the live cores' times finds it. The
// LLC and the cores' slots belong to the machine rather than the run:
// RunOn and RunSourcesOn take a Host that the caller keeps, and resets,
// across runs.
package sim

import (
	"math/bits"

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
	return RunOn(NewHost(sys), spec, ms, nm, fm, sys, nil)
}

// RunSources executes one explicit trace source per core — the entry
// point for replaying captured traces. mlp bounds each core's overlapped
// misses.
func RunSources(name string, srcs []Source, mlp int, ms memtypes.MemorySystem, nm, fm *memsys.Device, sys config.System) Result {
	return RunSourcesOn(NewHost(sys), name, srcs, mlp, ms, nm, fm, sys, nil)
}

// Host is the processor side of a machine: the shared last-level cache
// and the run loop's per-core slots (core model, MSHR heap and record
// buffer). Its state depends on the system alone, so a caller that runs
// many designs on one system keeps one Host and resets it between runs,
// with the results a new Host gives. Run and RunSources build one per
// run.
type Host struct {
	LLC   *cachesim.Cache
	cores []coreState
	times []memtypes.Tick
}

// NewHost builds the host of sys; the cores' slots are allocated by the
// first run.
func NewHost(sys config.System) *Host {
	return &Host{LLC: cachesim.New(sys.LLCBytes, config.LLCAssoc, memtypes.CPULineBytes)}
}

// Reset returns h to NewHost's state, keeping the memory of its LLC and
// of its cores' slots. The cores themselves are reset by each run.
func (h *Host) Reset() { h.LLC.Reset() }

// start resets h's core slots and their times in place for a run of
// srcs at mlp and returns the slots; those allocated by an earlier run
// are reused, MSHR heaps included.
func (h *Host) start(srcs []Source, mlp int) []coreState {
	if cap(h.cores) < len(srcs) {
		h.cores = make([]coreState, len(srcs))
		h.times = make([]memtypes.Tick, len(srcs))
	}
	h.cores, h.times = h.cores[:len(srcs)], h.times[:len(srcs)]
	for i := range h.cores {
		cs := &h.cores[i]
		cs.Reset(mlp)
		cs.src, cs.head, cs.n = srcs[i], 0, 0
	}
	clear(h.times)
	return h.cores
}

// RunOn is Run on h, a host NewHost(sys) built and no run has used
// since it was built or Reset, with an optional telemetry sampler: smp
// observes the run as a series of windowed epochs (see
// internal/telemetry). A nil smp is exactly Run — the sampler is passive
// and never changes the Result. The host belongs to the machine, not to
// the run: a caller that runs many designs on one system keeps one host
// and resets it between runs, with the results a new host gives.
func RunOn(h *Host, spec workload.Spec, ms memtypes.MemorySystem, nm, fm *memsys.Device, sys config.System, smp *telemetry.Sampler) Result {
	srcs := make([]Source, config.Cores)
	for i := range srcs {
		srcs[i] = workload.NewStream(spec, i, sys.Scale, sys.InstrPerCore, sys.Seed)
	}
	return RunSourcesOn(h, spec.Name, srcs, MLPFor(spec), ms, nm, fm, sys, smp)
}

// coreState is one core's slot in the run loop: the core model, its
// source and the refillable record buffer, held inline so the selected
// core's next record is one dependent load from its slot.
type coreState struct {
	cpu.Core
	src  Source
	head int
	n    int
	buf  [batchLen]memtypes.Rec
}

// earliest returns the position of the minimum of t, the lowest such
// position on ties. The borrow of t[j] - best is 1 exactly when t[j] is
// strictly smaller; the mask it makes adds that difference to best and
// moves pos to j without a branch, so the choice costs the same
// whichever core wins.
func earliest(t []memtypes.Tick) int {
	pos, best := 0, t[0]
	for j := 1; j < len(t); j++ {
		d, borrow := bits.Sub64(uint64(t[j]), uint64(best), 0)
		mask := -borrow
		best += memtypes.Tick(d & mask)
		pos ^= (pos ^ j) & int(mask)
	}
	return pos
}

// maxCoreTime returns the latest core time — the run's cycle count so
// far. Called only at epoch boundaries and at the end of the run, so
// its O(cores) cost is off the per-record path.
func maxCoreTime(cores []coreState) memtypes.Tick {
	var t memtypes.Tick
	for i := range cores {
		t = max(t, cores[i].Time)
	}
	return t
}

// RunSourcesOn is RunSources on h, under RunOn's conditions, with an
// optional telemetry sampler; nil smp is exactly RunSources.
//
// It is the per-record simulation loop; every design runs through it
// behind the memtypes.MemorySystem interface, one dynamic call per
// memory access. The scheduler keeps the cores whose sources still have
// records as a live prefix of cores, in index order, with their times
// mirrored in the dense array times; each record goes to earliest(times),
// the lowest-indexed core among those with the minimum time, exactly the
// core a linear scan over all cores selects. A core whose source runs
// dry leaves the prefix with the others' order kept, rotated to the tail
// where the final tally still reads it. No finished core stays in the
// scan under a sentinel time: a live core can reach any Tick, and a
// sentinel tying with it at a lower index would win the tie. Each core's
// records arrive batchLen at a time through its Source; a source's
// records do not depend on pull granularity, so the batching moves no
// result. The steady state allocates nothing: record buffers, core state
// and times are the host's, and the histogram is a fixed array. The
// telemetry sampler is optional and passive: with smp nil the per-record
// cost is one predictable branch and the Result is unchanged either way.
// The caller owns h and hands it over in NewHost's state.
func RunSourcesOn(h *Host, name string, srcs []Source, mlp int, ms memtypes.MemorySystem, nm, fm *memsys.Device, sys config.System, smp *telemetry.Sampler) Result {
	var lat stats.Histogram

	// Telemetry boundary state: retired instructions mirror the cores'
	// own counting (Gap non-memory instructions + 1 memory op per
	// record), sNext is the next epoch boundary.
	var sInstr, sNext uint64
	if smp != nil {
		sNext = smp.WindowInstr()
	}

	llc := h.LLC
	cores := h.start(srcs, mlp)
	times := h.times[:len(cores)] // a length the compiler ties to cores'

	for live := len(cores); live > 0; {
		// Advance the earliest core: keeps memory-system calls in
		// near-time order so device contention is modeled consistently.
		sel := earliest(times[:live])
		cs := &cores[sel]
		if cs.head == cs.n {
			cs.n = cs.src.NextBatch(cs.buf[:])
			cs.head = 0
			if cs.n == 0 {
				cs.DrainMisses()
				done := *cs
				copy(cores[sel:live], cores[sel+1:live])
				copy(times[sel:live], times[sel+1:live])
				live--
				cores[live] = done
				continue
			}
		}
		r := cs.buf[cs.head]
		cs.head++

		c := &cs.Core
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
		times[sel] = c.Time
	}

	cycles := maxCoreTime(cores)
	var instr uint64
	for i := range cores {
		instr += cores[i].Instructions
		cores[i].src = nil // the host outlives the run's sources
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
