package hybridmem

import (
	"fmt"

	"hybridmem/internal/api"
	"hybridmem/internal/exp"
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
// counters between two epoch boundaries (IPC, MPKI, traffic per class,
// migrations and demand-miss latency). It is the engine's own type,
// with the JSON tags of the series documents hybridmemd serves.
type Epoch = api.Epoch

// Phase is one segment of the phase decomposition: a maximal run of
// epochs with statistically stable IPC, annotated with its means.
type Phase = api.SeriesPhase

// Series is the telemetry of one sampled run: the retained epochs
// (oldest first), how many the MaxEpochs bound dropped, and the phase
// segmentation computed over the retained epochs.
type Series = api.Series

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
	var ser *Series
	if t := opts.Telemetry; t != nil {
		r.Telemetry = &exp.TelemetryOptions{
			WindowInstr: t.WindowInstr,
			MaxEpochs:   t.MaxEpochs,
			OnSeries:    func(_ int, s *Series) { ser = s },
		}
	}
	sr, err := r.ResultErr(spec, design, cfg.NMRatio16)
	if err != nil {
		return Result{}, nil, fmt.Errorf("hybridmem: %w", err)
	}
	return fromSim(sr), ser, nil
}
