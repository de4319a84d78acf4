package hybridmem

import (
	"fmt"

	"hybridmem/internal/exp"
	"hybridmem/internal/telemetry"
	"hybridmem/internal/workload"
)

// TelemetryOptions enables epoch telemetry on a run: the simulation is
// sampled every WindowInstr retired instructions into a bounded series
// of epochs (IPC, MPKI, traffic, migration and latency deltas per
// window) with a phase segmentation attached.
//
// Telemetry is passive: the Result of a sampled run is identical to the
// unsampled run's, and the series itself is deterministic — the same
// run yields the same series.
type TelemetryOptions struct {
	// WindowInstr is the epoch length in retired instructions across
	// all cores; <= 0 means the 65536-instruction default.
	WindowInstr uint64
	// MaxEpochs bounds the retained series; <= 0 means 512. When a run
	// closes more epochs than the bound, the oldest are dropped (the
	// series reports how many).
	MaxEpochs int
}

// RunOptions extends Run with optional per-run features.
type RunOptions struct {
	// Telemetry, when non-nil, attaches epoch sampling to the run and
	// makes RunWithOptions return the series alongside the result.
	Telemetry *TelemetryOptions
}

// Epoch is one telemetry sample: the windowed delta of the simulation's
// counters between two epoch boundaries.
type Epoch struct {
	// Index counts epochs from 0; EndInstr and EndCycle locate the
	// epoch's closing boundary in retired instructions and core cycles.
	Index    int
	EndInstr uint64
	EndCycle uint64
	// Instr and Cycles are the epoch's own extent (deltas).
	Instr  uint64
	Cycles uint64
	IPC    float64
	// LLC behaviour within the epoch.
	LLCAccesses uint64
	LLCMisses   uint64
	MPKI        float64
	// Memory-system behaviour within the epoch.
	Requests       uint64
	NMHitFrac      float64 // fraction of requests served by near memory
	NMTrafficBytes uint64
	FMTrafficBytes uint64
	MetaNMBytes    uint64
	// The epoch's bytes of the other traffic classes on both devices:
	// processor requests, cache fills, write-backs of dirty cached data,
	// and data moved by migrations. With MetaNMBytes they sum to
	// NMTrafficBytes + FMTrafficBytes.
	DemandBytes    uint64
	FillBytes      uint64
	WritebackBytes uint64
	MigrationBytes uint64
	Migrations     uint64
	Evictions      uint64
	WastedFrac     float64 // fetched-but-unused fraction of fetched bytes
	// Demand-miss latency distribution within the epoch, in core cycles.
	LatCount uint64
	LatMean  float64
	LatP50   uint64
	LatP99   uint64
}

// Phase is one segment of the phase decomposition: a maximal run of
// epochs with statistically stable IPC, annotated with its means.
type Phase struct {
	StartEpoch     int
	EndEpoch       int // inclusive
	Epochs         int
	MeanIPC        float64
	MeanMPKI       float64
	MeanNMHitFrac  float64
	MeanWastedFrac float64
}

// Series is the telemetry of one sampled run: the retained epochs
// (oldest first) and the phase segmentation computed over them.
type Series struct {
	// WindowInstr is the resolved epoch length.
	WindowInstr uint64
	// EpochsTotal counts every epoch the run closed; EpochsDropped how
	// many of the oldest fell out of the MaxEpochs bound.
	EpochsTotal   int
	EpochsDropped int
	Epochs        []Epoch
	Phases        []Phase
}

// RunWithOptions is Run with optional epoch telemetry: with
// opts.Telemetry set it returns the run's time series alongside the
// result; with a zero RunOptions it is Run and returns a nil series.
// Either way the Result is identical to Run's — telemetry never changes
// what a run reports.
func RunWithOptions(design, workloadName string, cfg Config, opts RunOptions) (Result, *Series, error) {
	spec, ok := workload.ByName(workloadName)
	if !ok {
		return Result{}, nil, fmt.Errorf("hybridmem: unknown workload %q", workloadName)
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, nil, err
	}
	r := &exp.Runner{Scale: cfg.Scale, InstrPerCore: cfg.InstrPerCore, Seed: cfg.Seed}
	var ser *telemetry.Series
	if t := opts.Telemetry; t != nil {
		r.Telemetry = &exp.TelemetryOptions{
			WindowInstr: t.WindowInstr,
			MaxEpochs:   t.MaxEpochs,
			OnSeries:    func(_ int, s *telemetry.Series) { ser = s },
		}
	}
	sr, err := r.ResultErr(spec, design, cfg.NMRatio16)
	if err != nil {
		return Result{}, nil, fmt.Errorf("hybridmem: %w", err)
	}
	return fromSim(sr), fromSeries(ser), nil
}

// fromSeries converts the internal telemetry series to the public form.
// Epoch and Phase convert from their telemetry counterparts, so the
// compiler rejects a field the two do not share.
func fromSeries(ts *telemetry.Series) *Series {
	if ts == nil {
		return nil
	}
	s := &Series{
		WindowInstr:   ts.WindowInstr,
		EpochsTotal:   ts.EpochsTotal,
		EpochsDropped: ts.EpochsDropped,
		Epochs:        make([]Epoch, len(ts.Epochs)),
		Phases:        make([]Phase, len(ts.Phases)),
	}
	for i, e := range ts.Epochs {
		s.Epochs[i] = Epoch(e)
	}
	for i, p := range ts.Phases {
		s.Phases[i] = Phase(p)
	}
	return s
}
