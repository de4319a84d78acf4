// Package hybridmem is a trace-driven simulator of hybrid DRAM memory
// systems, reproducing "Hybrid2: Combining Caching and Migration in Hybrid
// Memory Systems" (Vasilakis et al., HPCA 2020).
//
// The package simulates an 8-core processor with a shared LLC in front of
// a two-level memory: a high-bandwidth 3D-stacked near memory (HBM2) and
// a high-capacity far memory (DDR4). The memory organizations plugged
// under the LLC come from a self-registering design registry
// (internal/design): AllDesigns lists every registered family with its
// name grammar, typed parameters and ranges, and ValidateDesign resolves
// any design string without running a simulation. The built-in families:
//
//   - Baseline: far memory only (the paper's normalization point)
//   - MPOD, CHA, LGM: flat-address-space migration schemes
//     (MemPod, Chameleon, LLC-Guided Migration)
//   - TAGLESS, DFC[-<lineB>], IDEAL-<lineB>: DRAM caches
//   - CAMEO, POM, SILC-FM, ALLOY, FOOTPRINT, BANSHEE: §2 related work
//   - HYBRID2: the paper's contribution, plus its Fig. 14 ablations
//     (H2-CacheOnly, H2-MigrAll, H2-MigrNone, H2-NoRemap), Fig. 11
//     design points (H2DSE-<cacheMB>-<sectorKB>-<lineB>) and
//     sensitivity sweeps (H2ABL-<knob>-<val>)
//
// Design names parse before anything runs: malformed parameters (out of
// range, not a power of two, unknown knobs) are errors from Run, RunAll
// and ValidateDesign, never panics mid-simulation.
//
// Thirty synthetic workloads mirror the paper's Table 2 (21 SPEC2017 +
// 9 NAS benchmarks). All runs are deterministic for a given seed.
//
// Quickstart:
//
//	res, err := hybridmem.Run("HYBRID2", "lbm", hybridmem.DefaultConfig())
//	base, _ := hybridmem.Run("Baseline", "lbm", hybridmem.DefaultConfig())
//	fmt.Printf("speedup: %.2f\n", float64(base.Cycles)/float64(res.Cycles))
//
// RunAll sweeps many (design, workload) pairs across a worker pool; the
// results are deterministic and identical at any parallelism. Explore
// searches the registered design space for Pareto-optimal organizations
// (speedup vs DRAM capacity vs memory write traffic) under an
// evaluation budget, with per-batch checkpointing and deterministic
// resume — the paper's H2DSE exploration as an API. Serve exposes all
// of it as a long-lived HTTP service (cmd/hybridmemd) with a
// content-addressed result cache, singleflight deduplication, async
// jobs with streaming progress, and streaming trace upload.
package hybridmem

import (
	"fmt"
	"io"

	"hybridmem/internal/api"
	"hybridmem/internal/config"
	"hybridmem/internal/design"
	"hybridmem/internal/exp"
	"hybridmem/internal/sim"
	"hybridmem/internal/workload"
)

// Config selects the simulated system size and run length.
type Config struct {
	// Scale divides the paper's capacities (LLC, NM, FM, DRAM cache,
	// workload footprints); granularities stay at paper values. 16 by
	// default (64 MB-scale NM against 1 GB-scale FM).
	Scale int
	// NMRatio16 sets near memory to NMRatio16/16 of far memory: 1, 2 or
	// 4 in the paper (1, 2 and 4 GB of NM against 16 GB of FM).
	NMRatio16 int
	// InstrPerCore is the per-core instruction budget.
	InstrPerCore uint64
	// Seed makes runs reproducible; same seed, same result.
	Seed uint64
}

// DefaultConfig returns the configuration used by the experiment harness.
func DefaultConfig() Config {
	return Config{
		Scale:        config.DefaultScale,
		NMRatio16:    1,
		InstrPerCore: 1_000_000,
		Seed:         1,
	}
}

// Validate reports why a configuration is unusable, nil when every entry
// point (Run, RunAll, RunCustom, ReplayTrace, Explore) would accept it.
// It is cheap — no simulation state is built — so servers can reject bad
// requests up front.
func (c Config) Validate() error {
	if err := config.ValidateRun(c.Scale, c.NMRatio16, c.InstrPerCore); err != nil {
		return fmt.Errorf("hybridmem: invalid Config: %w", err)
	}
	return nil
}

// Result reports the measurements of one run.
type Result struct {
	Workload string
	Design   string

	Cycles       uint64
	Instructions uint64
	IPC          float64
	MPKI         float64 // LLC misses per kilo-instruction

	// Memory-system behaviour.
	Requests       uint64
	ServedNMFrac   float64 // fraction of requests served by near memory
	NMTrafficBytes uint64
	FMTrafficBytes uint64
	MetaNMBytes    uint64 // NM traffic due to remap/tag metadata
	Migrations     uint64
	EnergyNanoJ    float64 // dynamic memory energy
}

// Workloads returns the names of the 30 Table 2 workloads in paper order.
func Workloads() []string {
	specs := workload.Specs()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// Designs returns the names of the six main designs of the evaluation
// plus the baseline. Additional parameterized names are accepted by Run;
// AllDesigns lists every registered family with its full grammar.
func Designs() []string {
	return append([]string{"Baseline"}, exp.MainDesigns...)
}

// DesignParam describes one typed parameter of a design-name grammar:
// an integer bounded by Min and Max (and a power of two when Pow2 is
// set), or a token from Enum; an Optional parameter may be omitted and
// then takes Default. It is the registry's own type.
type DesignParam = design.Param

// DesignInfo describes one registered memory-organization family.
type DesignInfo struct {
	// Name is the base name ("DFC"); Grammar the full name syntax
	// ("DFC[-<lineB>]"); Example a runnable sample ("DFC-1024").
	Name    string
	Grammar string
	Example string
	Doc     string
	// Kind is "baseline", "main" (the paper's Figures 12-18), "extra"
	// (§2 related work) or "variant" (parameterized studies).
	Kind string
	// NeedsNM reports whether the design uses near memory; Config's
	// NMRatio16 is irrelevant when it is false.
	NeedsNM bool
	Params  []DesignParam
}

// AllDesigns lists every registered design family in the paper's order —
// the same source of truth the engine, cmd/experiments -designs and
// cmd/hybrid2sim -designs use.
func AllDesigns() []DesignInfo {
	infos := design.AllInfos()
	out := make([]DesignInfo, len(infos))
	for i, info := range infos {
		params := make([]DesignParam, len(info.Params))
		for j, p := range info.Params {
			params[j] = p
			params[j].Enum = append([]string(nil), p.Enum...)
		}
		out[i] = DesignInfo{
			Name:    info.Name,
			Grammar: info.Grammar(),
			Example: info.SampleName(),
			Doc:     info.Doc,
			Kind:    info.Kind.String(),
			NeedsNM: info.NeedsNM,
			Params:  params,
		}
	}
	return out
}

// ValidateDesign resolves a design name against the registry without
// running anything: nil means Run would accept it, an error pinpoints
// the unknown name or the out-of-range parameter.
func ValidateDesign(name string) error {
	if _, err := design.Parse(name); err != nil {
		return fmt.Errorf("hybridmem: %w", err)
	}
	return nil
}

// Run simulates one workload on one memory-system design and returns its
// measurements. Design names are listed in the package documentation;
// workload names come from Workloads.
func Run(design, workloadName string, cfg Config) (Result, error) {
	res, _, err := RunWithOptions(design, workloadName, cfg, RunOptions{})
	return res, err
}

// SweepOptions configures a RunAll sweep beyond the per-run Config.
type SweepOptions struct {
	// Parallelism bounds the simulations evaluated concurrently; <= 0
	// means GOMAXPROCS, 1 forces strictly serial execution. Results are
	// deterministic and identical at any setting.
	Parallelism int
	// Designs to sweep; nil means Designs() (baseline + the six main
	// designs of the evaluation).
	Designs []string
	// Workloads to sweep by name; nil means all 30 built-in benchmarks.
	Workloads []string
}

// RunAll evaluates every (design, workload) pair of a sweep across a
// worker pool and returns the results in design-major, workload-minor
// order — the paper's figure layout. A malformed design or workload name
// fails the whole sweep with an error identifying it.
func RunAll(cfg Config, opts SweepOptions) ([]Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	designs := opts.Designs
	if designs == nil {
		designs = Designs()
	}
	names := opts.Workloads
	if names == nil {
		names = Workloads()
	}
	for _, d := range designs {
		if err := ValidateDesign(d); err != nil {
			return nil, err
		}
	}
	specs, err := exp.SweepSpecsByName(designs, names, cfg.NMRatio16)
	if err != nil {
		return nil, fmt.Errorf("hybridmem: %w", err)
	}
	r := &exp.Runner{
		Scale:        cfg.Scale,
		InstrPerCore: cfg.InstrPerCore,
		Seed:         cfg.Seed,
		Parallelism:  opts.Parallelism,
	}
	srs, err := r.ResultsParallel(specs)
	if err != nil {
		return nil, fmt.Errorf("hybridmem: %w", err)
	}
	out := make([]Result, len(srs))
	for i, sr := range srs {
		out[i] = fromSim(sr)
	}
	return out, nil
}

// Speedup runs design and the baseline on one workload and returns the
// cycle ratio (the paper's headline metric).
func Speedup(design, workloadName string, cfg Config) (float64, error) {
	base, err := Run("Baseline", workloadName, cfg)
	if err != nil {
		return 0, err
	}
	res, err := Run(design, workloadName, cfg)
	if err != nil {
		return 0, err
	}
	if res.Cycles == 0 {
		return 0, fmt.Errorf("hybridmem: zero-cycle run")
	}
	return float64(base.Cycles) / float64(res.Cycles), nil
}

// Workload describes a custom synthetic workload for RunCustom, for
// scenarios beyond the 30 built-in Table 2 benchmarks.
type Workload struct {
	Name          string
	MultiThreaded bool    // 8 threads share one region (vs 8 rate copies)
	FootprintGB   float64 // total memory footprint at paper scale
	APKI          float64 // LLC accesses per kilo-instruction
	HotFrac       float64 // fraction of the footprint forming the hot set
	HotProb       float64 // probability an access run targets the hot set
	SeqRun        float64 // mean sequential run length in 64 B lines
	WriteFrac     float64 // store fraction
	Phases        int     // working-set phases over the run (1 = stable)
}

// RunCustom simulates a user-defined workload on one design.
func RunCustom(design string, w Workload, cfg Config) (Result, error) {
	if w.FootprintGB <= 0 || w.APKI <= 0 {
		return Result{}, fmt.Errorf("hybridmem: workload needs positive FootprintGB and APKI")
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	kind := workload.MP
	if w.MultiThreaded {
		kind = workload.MT
	}
	spec := workload.Spec{
		Name:             w.Name,
		Kind:             kind,
		PaperFootprintGB: w.FootprintGB,
		APKI:             w.APKI,
		HotFrac:          w.HotFrac,
		HotProb:          w.HotProb,
		SeqRun:           w.SeqRun,
		WriteFrac:        w.WriteFrac,
		Phases:           w.Phases,
	}
	r := &exp.Runner{Scale: cfg.Scale, InstrPerCore: cfg.InstrPerCore, Seed: cfg.Seed}
	sr, err := r.ResultErr(spec, design, cfg.NMRatio16)
	if err != nil {
		return Result{}, fmt.Errorf("hybridmem: %w", err)
	}
	return fromSim(sr), nil
}

// ReplayOptions tunes streaming trace replay beyond the per-run Config.
// The zero value picks sensible defaults.
type ReplayOptions struct {
	// MLP bounds each core's overlapped misses — traces carry no
	// dependence information, so replay needs an explicit memory-level
	// parallelism. <= 0 means 4; above 64 is an error.
	MLP int
	// Window bounds the streaming reader's per-core lookahead in
	// records; <= 0 means the 65536-record default, and above 1048576
	// (trace.MaxWindow) is an error. Replay fails with an error if the
	// trace's core interleaving is more skewed than the window (e.g. all
	// of one core's records grouped before another's).
	Window int
}

// ReplayTrace replays a captured memory trace on a design, streaming the
// records: the trace is decoded on demand and never materialized, so
// multi-gigabyte captures replay in constant memory. The reader may
// yield either trace format, plain or gzip-compressed — the encoding is
// auto-detected (see internal/trace for the specs; cmd/tracegen emits
// traces, cmd/traceconv converts between encodings).
func ReplayTrace(design, name string, r io.Reader, opts ReplayOptions, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	mlp := opts.MLP
	if mlp < 1 {
		mlp = 4
	}
	runner := &exp.Runner{
		Scale:        cfg.Scale,
		InstrPerCore: cfg.InstrPerCore,
		Seed:         cfg.Seed,
		TraceWindow:  opts.Window,
	}
	sr, err := runner.RunTrace(name, r, design, cfg.NMRatio16, mlp)
	if err != nil {
		return Result{}, fmt.Errorf("hybridmem: %w", err)
	}
	return fromSim(sr), nil
}

// fromSim converts an internal simulation result to the public form
// through the JSON wire mapping (internal/api): Result converts from
// api.Result, so the compiler rejects a field the two do not share.
func fromSim(sr sim.Result) Result { return Result(api.FromSim(sr)) }
