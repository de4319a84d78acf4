// Package memtypes holds the shared primitive types of the memory-system
// simulator: addresses, time, the MemorySystem interface implemented by
// every evaluated design, and the traffic statistics they report.
package memtypes

// Addr is a byte address in the processor physical address space.
type Addr uint64

// Tick is a point in time measured in CPU cycles (3.2 GHz in the paper's
// configuration, Table 1).
type Tick uint64

// NextPeriod returns the first boundary next + k*period, k >= 1, after
// now, for a periodic event that came due at next <= now. It is the
// result of stepping next by period until it passes now, computed in
// O(1) so a long idle stretch costs nothing; it saturates at the largest
// Tick instead of wrapping.
func NextPeriod(next, now, period Tick) Tick {
	k := (now-next)/period + 1
	if k > (^Tick(0)-next)/period {
		return ^Tick(0)
	}
	return next + k*period
}

// CPULineBytes is the granularity of processor memory requests: one
// last-level-cache line.
const CPULineBytes = 64

// Rec is one trace record: Gap non-memory instructions followed by one
// 64 B access at Addr. It is the simulator's only record type: the
// workload generators and the trace decoder produce it, the trace
// encoder writes it, and the run loop consumes it.
type Rec struct {
	Gap   uint64
	Addr  Addr
	Write bool
}

// Source yields one core's records in program order, the only way
// records move from a generator or trace to the run loop. NextBatch
// fills dst with up to len(dst) records and returns the count; 0 means
// the source is exhausted, and a short non-zero count is not the end.
// The records may not depend on pull granularity: any sequence of calls,
// with any dst lengths, yields the same record stream, so a run is the
// same whether its records are pulled one at a time or in batches.
type Source interface {
	NextBatch(dst []Rec) int
}

// MemorySystem is the interface every memory organization under study
// implements: the flat baseline, the DRAM caches, the migration schemes,
// and Hybrid2 itself. The simulation driver issues one call per LLC miss
// or dirty write-back.
type MemorySystem interface {
	// Name identifies the design in experiment output.
	Name() string

	// Access serves one 64-byte request issued at time now and returns
	// the time at which the requested data is available (for reads) or
	// accepted (for writes). Every induced transfer (demand, fills,
	// write-backs, migrations, metadata) goes through the memory devices,
	// which count its bytes by traffic class.
	Access(now Tick, addr Addr, write bool) Tick

	// Finish flushes design state that would otherwise stay buffered
	// (e.g. pending interval work) at simulation end time now.
	Finish(now Tick)

	// Stats returns the design's counters. Designs count events only;
	// the byte fields are read from the design's devices on each call
	// (memsys.WithTraffic). The returned pointer stays valid for the
	// lifetime of the design.
	Stats() *MemStats
}

// Resetter is a MemorySystem that can be reused: every registered
// design builds one. Reset(seed) returns the instance to exactly the
// state its registered Build function returns for the same system with
// Seed set to seed, so the next run on it is indistinguishable from a
// run on a fresh build at that seed. A design's geometry comes from the
// rest of the system; the seed picks only its initial page placement,
// which a flat design re-points at seed's placement and every other
// design ignores. Reset undoes only what Access, Finish and Stats
// changed, at a cost proportional to that state and to the design's
// near-memory and on-chip structures, never to the whole capacity
// modelled or to the length of the run; a seed whose placement is not
// memoized adds one shuffle of it. The devices a design runs on are
// reset separately (memsys.Device.Reset) by whoever owns them.
type Resetter interface {
	MemorySystem
	Reset(seed uint64)
}

// Class says why a device transfer moved its bytes.
type Class uint8

// Traffic classes.
const (
	// Demand is the data of processor requests.
	Demand Class = iota
	// Fill is data copied into a DRAM cache: the far-memory read and the
	// near-memory write.
	Fill
	// Writeback is dirty cached data copied back to its home: the
	// near-memory read and the far-memory write.
	Writeback
	// Migration is data moved between the devices by a migration or swap
	// of a flat-address-space scheme.
	Migration
	// Metadata is tag, remap-table and free-list traffic.
	Metadata
	// NumClasses is the number of traffic classes.
	NumClasses
)

// Bytes counts the bytes a device read and wrote.
type Bytes struct {
	Read  uint64
	Write uint64
}

// Sum returns Read + Write.
func (b Bytes) Sum() uint64 { return b.Read + b.Write }

// Traffic is one device's byte counters, per traffic class.
type Traffic [NumClasses]Bytes

// Total returns the bytes of every class together.
func (t *Traffic) Total() Bytes {
	var b Bytes
	for _, c := range t {
		b.Read += c.Read
		b.Write += c.Write
	}
	return b
}

// MemStats aggregates the traffic a MemorySystem induced on the two
// memory devices, split the way the paper's Figures 15-18 need it.
type MemStats struct {
	Requests uint64 // processor requests seen
	ServedNM uint64 // processor requests whose data came from NM
	ServedFM uint64 // processor requests whose data came from FM
	// Byte totals of the devices, set by memsys.WithTraffic.
	NMReadBytes  uint64 // all NM reads (demand + fills + metadata)
	NMWriteBytes uint64
	FMReadBytes  uint64
	FMWriteBytes uint64
	MetaNMBytes  uint64 // subset of NM traffic due to remap/tag metadata
	Migrations   uint64 // sectors/segments/pages moved into NM
	Evictions    uint64 // cache or NM evictions back to FM
	// Wasted-fetch accounting for Figure 1: bytes fetched into the NM
	// cache and bytes of those actually touched before eviction. A byte
	// counts as used only if it was fetched, so UsedBytes never exceeds
	// FetchedBytes.
	FetchedBytes uint64
	UsedBytes    uint64
	// Per-class device counters, set by memsys.WithTraffic.
	NM Traffic
	FM Traffic
}

// NMTraffic returns total bytes moved on the near-memory interface.
func (s *MemStats) NMTraffic() uint64 { return s.NMReadBytes + s.NMWriteBytes }

// FMTraffic returns total bytes moved on the far-memory interface.
func (s *MemStats) FMTraffic() uint64 { return s.FMReadBytes + s.FMWriteBytes }

// ClassBytes returns the bytes of one class moved on both devices.
func (s *MemStats) ClassBytes(c Class) uint64 { return s.NM[c].Sum() + s.FM[c].Sum() }

// WastedFrac returns the fraction of fetched bytes never used before
// eviction (Figure 1), 0 when nothing was fetched. It panics when
// UsedBytes exceeds FetchedBytes: no design can use a byte it did not
// fetch, so such counters are a design bug, not a value to report.
func (s *MemStats) WastedFrac() float64 {
	if s.UsedBytes > s.FetchedBytes {
		panic("memtypes: UsedBytes exceeds FetchedBytes")
	}
	if s.FetchedBytes == 0 {
		return 0
	}
	return float64(s.FetchedBytes-s.UsedBytes) / float64(s.FetchedBytes)
}
