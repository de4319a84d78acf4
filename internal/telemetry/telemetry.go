// Package telemetry is the simulation-side observability plane: a
// bounded, allocation-disciplined epoch sampler that turns one run of
// the memory-system simulator into a time series.
//
// # Epoch model
//
// The run loop owns cumulative counters (instructions, cycles, LLC
// accesses/misses, the design's MemStats, demand read-miss latencies).
// A Sampler closes an *epoch* every WindowInstr retired instructions:
// it diffs the cumulative counters against the previous boundary and
// records the windowed deltas — IPC, MPKI, NM hit fraction, NM/FM
// traffic bytes and their split by traffic class, migrations,
// evictions, wasted-fetch fraction, and the
// window's demand-latency mean/percentiles — as one Epoch sample. A
// final partial epoch covers whatever remains past the last boundary,
// so the series' totals reconcile with the run's headline Result.
//
// Epochs land in a preallocated ring of MaxEpochs samples; once the
// ring is full the oldest epochs are dropped (Series reports how many).
// In steady state closing an epoch allocates nothing: the ring is
// preallocated, the window histogram is a fixed array reset by zeroing,
// and the delta math is pure arithmetic.
//
// # Window knobs
//
// Options.WindowInstr sets the epoch length in retired instructions
// (default 65536); Options.MaxEpochs bounds the ring (default 512).
// Options.OnEpoch, when set, streams each epoch as it closes — the
// serving layer uses it for live SSE frames and the scrape-time
// "current epoch" gauges.
//
// # Series schema
//
// Series is both the in-process form and, through its JSON tags, the
// series of internal/api's versioned wire documents (api.Series, schema
// api.SeriesSchemaVersion): one JSON object per epoch plus a
// phase-segmentation summary:
// deterministic change-point detection over the per-epoch IPC series
// (see segment.go) splits the run into phases, each summarized by its
// mean IPC, MPKI, NM hit fraction and wasted-fetch fraction.
//
// # Passivity
//
// Telemetry is passive by construction: the simulator's Result is
// byte-identical with a sampler attached or not, every method is safe
// (and free) through a nil *Sampler, and the same run always yields
// the same series. These invariants are pinned by tests in
// internal/sim and internal/exp.
package telemetry

import (
	"hybridmem/internal/memtypes"
	"hybridmem/internal/stats"
)

// DefaultWindowInstr is the epoch length, in retired instructions,
// used when Options.WindowInstr is unset.
const DefaultWindowInstr = 65536

// DefaultMaxEpochs is the ring capacity used when Options.MaxEpochs is
// unset.
const DefaultMaxEpochs = 512

// Options configures a Sampler.
type Options struct {
	// WindowInstr is the epoch length in retired instructions across
	// all cores; <= 0 means DefaultWindowInstr.
	WindowInstr uint64

	// MaxEpochs bounds the ring of retained epochs; <= 0 means
	// DefaultMaxEpochs. Older epochs are dropped once it fills.
	MaxEpochs int

	// OnEpoch, when non-nil, is called synchronously with each epoch as
	// it closes — including the final partial one. The callback runs on
	// the simulating goroutine; it must not retain the Epoch's address.
	OnEpoch func(Epoch)
}

// Epoch is one closed sampling window: deltas of the simulator's
// cumulative counters between two consecutive boundaries, plus the
// derived rates the paper's figures are built from. The JSON tags are
// the series wire schema (api.SeriesSchemaVersion): field order is the
// wire order, pinned by internal/api's golden test.
type Epoch struct {
	Index    int    `json:"epoch"`     // epoch number within the run, from 0
	EndInstr uint64 `json:"end_instr"` // cumulative instructions at the closing boundary
	EndCycle uint64 `json:"end_cycle"` // cumulative cycles (max core time) at the boundary

	Instr  uint64  `json:"instr"`  // instructions retired within the window
	Cycles uint64  `json:"cycles"` // cycles elapsed within the window
	IPC    float64 `json:"ipc"`    // Instr / Cycles, 0 when no cycle elapsed

	LLCAccesses uint64  `json:"llc_accesses"` // LLC accesses within the window
	LLCMisses   uint64  `json:"llc_misses"`   // LLC misses within the window
	MPKI        float64 `json:"mpki"`         // LLCMisses per thousand window instructions

	Requests  uint64  `json:"requests"`    // memory requests within the window
	NMHitFrac float64 `json:"nm_hit_frac"` // fraction of window requests served from NM

	NMTrafficBytes uint64 `json:"nm_traffic_bytes"` // NM read+write bytes within the window
	FMTrafficBytes uint64 `json:"fm_traffic_bytes"` // FM read+write bytes within the window
	MetaNMBytes    uint64 `json:"meta_nm_bytes"`    // metadata subset of the NM traffic
	// The window's bytes of the other traffic classes, both devices
	// together. Metadata lives in NM, so these four plus MetaNMBytes sum
	// to NMTrafficBytes + FMTrafficBytes.
	DemandBytes    uint64  `json:"demand_bytes"`
	FillBytes      uint64  `json:"fill_bytes"`
	WritebackBytes uint64  `json:"writeback_bytes"`
	MigrationBytes uint64  `json:"migration_bytes"`
	Migrations     uint64  `json:"migrations"`
	Evictions      uint64  `json:"evictions"`
	WastedFrac     float64 `json:"wasted_frac"` // wasted fraction of bytes fetched this window

	LatCount uint64  `json:"lat_count"` // demand read-miss latency samples in the window
	LatMean  float64 `json:"lat_mean"`  // mean demand read-miss latency, cycles
	LatP50   uint64  `json:"lat_p50"`
	LatP99   uint64  `json:"lat_p99"`
}

// Phase is one segment of the phase-segmentation summary: a maximal
// run of consecutive epochs with statistically similar IPC.
type Phase struct {
	StartEpoch int `json:"start_epoch"` // first epoch index in the phase, inclusive
	EndEpoch   int `json:"end_epoch"`   // last epoch index in the phase, inclusive
	Epochs     int `json:"epochs"`      // EndEpoch - StartEpoch + 1

	MeanIPC        float64 `json:"mean_ipc"`
	MeanMPKI       float64 `json:"mean_mpki"`
	MeanNMHitFrac  float64 `json:"mean_nm_hit_frac"`
	MeanWastedFrac float64 `json:"mean_wasted_frac"`
}

// Series is the finalized output of one sampled run: the retained
// epochs (oldest first), bookkeeping about what the ring dropped, and
// the phase segmentation computed over the retained epochs.
type Series struct {
	WindowInstr   uint64  `json:"window_instr"`   // configured epoch length
	EpochsTotal   int     `json:"epochs_total"`   // epochs ever closed during the run
	EpochsDropped int     `json:"epochs_dropped"` // epochs the ring evicted (EpochsTotal - len(Epochs))
	Epochs        []Epoch `json:"epochs"`         // retained epochs, oldest first
	Phases        []Phase `json:"phases"`         // segmentation over the retained epochs
}

// Sampler accumulates epochs for one run. It is driven by the run
// loop: Latency per demand read miss, Flush at each window boundary
// and once at the end of the run. A nil *Sampler is fully disabled —
// every method is a free no-op — so call sites need no guards beyond
// the ones they want for branch-prediction hygiene. A Sampler is not
// safe for concurrent use; each run owns its own.
type Sampler struct {
	window  uint64
	ring    []Epoch
	head    int // next write slot in ring
	n       int // epochs currently retained
	total   int // epochs ever closed
	onEpoch func(Epoch)

	// Cumulative counter snapshot at the previous boundary.
	lastInstr uint64
	lastCycle uint64
	lastAcc   uint64
	lastMiss  uint64
	lastMem   memtypes.MemStats

	// Window-local demand read-miss latency histogram, reset by zeroing
	// at each boundary.
	lat stats.Histogram
}

// New returns an enabled sampler. Zero-value Options are usable:
// defaults fill in the window and ring bound.
func New(opts Options) *Sampler {
	w := opts.WindowInstr
	if w == 0 {
		w = DefaultWindowInstr
	}
	max := opts.MaxEpochs
	if max <= 0 {
		max = DefaultMaxEpochs
	}
	return &Sampler{
		window:  w,
		ring:    make([]Epoch, max),
		onEpoch: opts.OnEpoch,
	}
}

// Enabled reports whether the sampler collects anything. It is the
// idiomatic guard for hot paths: false for a nil receiver.
func (s *Sampler) Enabled() bool { return s != nil }

// WindowInstr returns the epoch length in instructions, 0 for a nil
// sampler (which the run loop treats as "no boundary ever").
func (s *Sampler) WindowInstr() uint64 {
	if s == nil {
		return 0
	}
	return s.window
}

// Latency records one demand read-miss latency (cycles) into the
// current window. No-op on a nil sampler.
func (s *Sampler) Latency(cycles uint64) {
	if s == nil {
		return
	}
	s.lat.Add(cycles)
}

// Flush closes the window ending at the given cumulative counters. The
// run loop calls it when the retired-instruction count crosses a
// boundary, and once more after the final record (the partial epoch).
// A flush with no new instructions is a no-op, so the final call is
// safe even when the run ended exactly on a boundary. No-op on a nil
// sampler.
func (s *Sampler) Flush(instr, cycle, llcAcc, llcMiss uint64, mem *memtypes.MemStats) {
	if s == nil || instr <= s.lastInstr {
		return
	}
	e := Epoch{
		Index:    s.total,
		EndInstr: instr,
		EndCycle: cycle,
		Instr:    instr - s.lastInstr,
		Cycles:   cycle - s.lastCycle,
	}
	if e.Cycles > 0 {
		e.IPC = float64(e.Instr) / float64(e.Cycles)
	}
	e.LLCAccesses = llcAcc - s.lastAcc
	e.LLCMisses = llcMiss - s.lastMiss
	e.MPKI = float64(e.LLCMisses) / (float64(e.Instr) / 1000)

	e.Requests = mem.Requests - s.lastMem.Requests
	if e.Requests > 0 {
		e.NMHitFrac = float64(mem.ServedNM-s.lastMem.ServedNM) / float64(e.Requests)
	}
	e.NMTrafficBytes = (mem.NMReadBytes - s.lastMem.NMReadBytes) + (mem.NMWriteBytes - s.lastMem.NMWriteBytes)
	e.FMTrafficBytes = (mem.FMReadBytes - s.lastMem.FMReadBytes) + (mem.FMWriteBytes - s.lastMem.FMWriteBytes)
	e.MetaNMBytes = mem.MetaNMBytes - s.lastMem.MetaNMBytes
	e.DemandBytes = mem.ClassBytes(memtypes.Demand) - s.lastMem.ClassBytes(memtypes.Demand)
	e.FillBytes = mem.ClassBytes(memtypes.Fill) - s.lastMem.ClassBytes(memtypes.Fill)
	e.WritebackBytes = mem.ClassBytes(memtypes.Writeback) - s.lastMem.ClassBytes(memtypes.Writeback)
	e.MigrationBytes = mem.ClassBytes(memtypes.Migration) - s.lastMem.ClassBytes(memtypes.Migration)
	e.Migrations = mem.Migrations - s.lastMem.Migrations
	e.Evictions = mem.Evictions - s.lastMem.Evictions
	// Windowed wasted-fetch fraction. Used bytes of lines fetched in an
	// earlier window still accrue here, so the delta of used bytes can
	// exceed the delta of fetched bytes; clamp to 0 rather than wrap.
	fetched := mem.FetchedBytes - s.lastMem.FetchedBytes
	used := mem.UsedBytes - s.lastMem.UsedBytes
	if fetched > 0 && used < fetched {
		e.WastedFrac = float64(fetched-used) / float64(fetched)
	}

	e.LatCount = s.lat.Count()
	e.LatMean = s.lat.Mean()
	if e.LatCount > 0 {
		e.LatP50 = s.lat.Percentile(0.50)
		e.LatP99 = s.lat.Percentile(0.99)
	}

	s.ring[s.head] = e
	s.head++
	if s.head == len(s.ring) {
		s.head = 0
	}
	if s.n < len(s.ring) {
		s.n++
	}
	s.total++

	s.lastInstr = instr
	s.lastCycle = cycle
	s.lastAcc = llcAcc
	s.lastMiss = llcMiss
	s.lastMem = *mem
	s.lat = stats.Histogram{}

	if s.onEpoch != nil {
		s.onEpoch(e)
	}
}

// Series finalizes the run: it snapshots the retained epochs (oldest
// first) and computes the phase segmentation. Nil for a nil sampler.
// Series may be called more than once; each call re-derives the same
// result from the current state.
func (s *Sampler) Series() *Series {
	if s == nil {
		return nil
	}
	epochs := make([]Epoch, 0, s.n)
	if s.n == len(s.ring) {
		epochs = append(epochs, s.ring[s.head:]...)
		epochs = append(epochs, s.ring[:s.head]...)
	} else {
		epochs = append(epochs, s.ring[:s.n]...)
	}
	return &Series{
		WindowInstr:   s.window,
		EpochsTotal:   s.total,
		EpochsDropped: s.total - len(epochs),
		Epochs:        epochs,
		Phases:        Segment(epochs),
	}
}
