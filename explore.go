package hybridmem

import (
	"context"
	"fmt"

	"hybridmem/internal/api"
	"hybridmem/internal/cluster"
	"hybridmem/internal/dse"
	"hybridmem/internal/store"
)

// ExploreOptions configures a design-space exploration. The zero value
// of every field has a usable default; Config's zero value means
// DefaultConfig with a 200k-instruction budget per run (explorations
// evaluate many candidates, so individual runs are kept short).
type ExploreOptions struct {
	// Families selects the design families to search by base name (see
	// AllDesigns); nil means every registered family except the
	// baseline. Parameterized families contribute their enumerated
	// design space, parameterless ones a single candidate.
	Families []string
	// Workloads selects the evaluation workloads by name; nil means all
	// 30 built-in benchmarks. Candidates are scored on geometric-mean
	// behaviour across the set.
	Workloads []string
	// Budget bounds candidate evaluations; the search stops at the
	// first batch boundary at or past it. <= 0 explores the whole
	// enumerated space.
	Budget int
	// BatchSize is the number of candidates evaluated — and
	// checkpointed — per batch; <= 0 means 8.
	BatchSize int
	// Seed drives the search's random sampling (the simulation seed
	// lives in Config); same seed, same search. 0 means 1.
	Seed uint64
	// Config configures the underlying simulations; its zero value
	// means DefaultConfig with InstrPerCore 200_000.
	Config Config
	// ScreenInstrPerCore, when non-zero, enables multi-fidelity search:
	// candidates are first screened at this truncated per-core
	// instruction budget, and only the screening Pareto frontier plus
	// its screened feasible ladder neighbors are promoted to
	// full-fidelity evaluation against Budget. Screening runs are cheap,
	// so the search covers several times more of the space for the same
	// total simulated instructions. Requires a positive Budget.
	ScreenInstrPerCore uint64
	// ScreenBudget bounds screening evaluations; <= 0 means 4x Budget.
	// Only meaningful with ScreenInstrPerCore set.
	ScreenBudget int
	// Parallelism bounds concurrently evaluated runs; <= 0 means
	// GOMAXPROCS. It does not affect results.
	Parallelism int
	// LoopbackRunners, when positive, evaluates candidates through the
	// distributed execution plane with that many in-process runners:
	// batches are sharded, dispatched with bounded in-flight per runner,
	// and work-stolen exactly as across real cluster nodes (see
	// internal/cluster), while all search state stays local. It does not
	// affect results — a distributed exploration is byte-identical to a
	// single-process one.
	LoopbackRunners int
	// StoreDir, when non-empty, backs every candidate evaluation with a
	// persistent result store: run results land in the directory's disk
	// tier and re-evaluations of work the store has seen — including
	// across separate explorations and processes — are served from it
	// without re-simulating. It never changes results; entries are keyed
	// by the engine and schema versions, so a version bump invalidates
	// the directory instead of serving stale results.
	StoreDir string
	// StoreMaxBytes bounds the disk store; <= 0 means unbounded.
	StoreMaxBytes int64
	// MaxPerParam caps the candidate values enumerated per integer
	// parameter (wide ranges subsample on a geometric ladder); <= 0
	// means 12.
	MaxPerParam int
	// Checkpoint names a JSON state file rewritten atomically after
	// every batch; empty disables checkpointing. Resume continues from
	// an existing checkpoint: a search interrupted at any batch
	// boundary and resumed produces results byte-identical to an
	// uninterrupted run.
	Checkpoint string
	Resume     bool
	// MaxBatches pauses the search after that many batches in this
	// call (checkpoint permitting resumption later); <= 0 runs to
	// completion.
	MaxBatches int
	// Progress, when non-nil, streams search progress: it is called
	// after every merged batch and once more on completion.
	Progress func(ExploreProgress)
}

// ExploreProgress is one streaming progress report of an exploration.
type ExploreProgress struct {
	// Batch counts completed batches; Evaluated counts evaluated
	// candidates against Budget and SpaceSize; FrontierSize is the
	// current Pareto set size. Done marks the final report.
	Batch        int
	Evaluated    int
	Budget       int
	SpaceSize    int
	FrontierSize int
	// Screened counts screening-fidelity evaluations of a multi-fidelity
	// exploration; zero when screening is disabled.
	Screened int
	Done     bool
}

// ExplorePoint is one evaluated candidate design of an exploration: the
// engine's wire type, so ExploreResult and the served explore document
// carry the same fields under the same JSON tags.
type ExplorePoint = api.ExplorePoint

// ExploreResult is the outcome of an exploration.
type ExploreResult struct {
	// Frontier is the Pareto-optimal subset of the evaluated feasible
	// candidates — no member is at least matched on every objective and
	// beaten on one by another — ordered by ascending capacity.
	Frontier []ExplorePoint `json:"frontier"`
	// Evaluated lists every evaluated candidate in evaluation order.
	Evaluated []ExplorePoint `json:"evaluated"`
	// Screened lists the screening-fidelity evaluations of a
	// multi-fidelity exploration in evaluation order; empty when
	// screening is disabled. Screened objectives are measured at
	// ScreenInstrPerCore and are not comparable to Evaluated's.
	Screened []ExplorePoint `json:"screened,omitempty"`
	// SpaceSize is the enumerated candidate-space size; Batches the
	// number of batches run (including checkpointed ones on resume).
	SpaceSize int `json:"space_size"`
	Batches   int `json:"batches"`
	// Resumed reports whether the search continued from a checkpoint;
	// Complete whether it reached its natural end rather than pausing
	// at MaxBatches. Both are excluded from the JSON form, which is
	// identical for interrupted-and-resumed and uninterrupted runs.
	Resumed  bool `json:"-"`
	Complete bool `json:"-"`

	// wire is the canonical versioned document of this exploration,
	// captured from the search engine's single wire mapping.
	wire []byte
}

// WireJSON returns the exploration as the canonical versioned JSON
// document (the internal/api schema, with a top-level "schema" field) —
// the exact bytes the hybridmemd server serves for an identical
// exploration, produced by the same mapping. It is only available on
// results returned by Explore.
func (r ExploreResult) WireJSON() ([]byte, error) {
	if r.wire == nil {
		return nil, fmt.Errorf("hybridmem: WireJSON is only available on results returned by Explore")
	}
	return r.wire, nil
}

// Explore searches the registered design space for Pareto-optimal
// memory organizations — the H2DSE exploration the paper's Figure 11 is
// built from, generalized over every registered family. Candidates are
// enumerated from the families' parameter grammars (exhaustively when
// the space fits the budget; by seeded random sampling plus
// hill-climbing on the frontier's neighborhoods otherwise), evaluated
// concurrently on the selected workloads, and folded into a Pareto
// frontier over speedup, DRAM capacity and memory write traffic.
//
// The search is deterministic for a given options set and seed, at any
// parallelism. With a Checkpoint configured, state is flushed after
// every batch and a canceled or paused search resumes exactly where it
// stopped. On cancellation Explore returns the partial result alongside
// ctx.Err().
func Explore(ctx context.Context, opts ExploreOptions) (ExploreResult, error) {
	cfg := opts.Config
	if cfg == (Config{}) {
		cfg = DefaultConfig()
		cfg.InstrPerCore = 200_000
	}
	if err := cfg.Validate(); err != nil {
		return ExploreResult{}, err
	}
	var progress func(dse.Event)
	if opts.Progress != nil {
		progress = func(e dse.Event) {
			opts.Progress(ExploreProgress{
				Batch:        e.Round,
				Evaluated:    e.Evaluated,
				Budget:       e.Budget,
				SpaceSize:    e.SpaceSize,
				FrontierSize: e.FrontierSize,
				Screened:     e.Screened,
				Done:         e.Done,
			})
		}
	}
	var st *store.Store
	if opts.StoreDir != "" {
		var err error
		st, err = store.Open(store.Options{Dir: opts.StoreDir, MaxBytes: opts.StoreMaxBytes})
		if err != nil {
			return ExploreResult{}, fmt.Errorf("hybridmem: %w", err)
		}
	}
	var eval dse.Evaluator
	if opts.LoopbackRunners > 0 {
		coord := cluster.NewCoordinator(cluster.CoordinatorOptions{
			LocalParallelism: opts.Parallelism,
			Store:            st,
		})
		coord.AttachLoopback(opts.LoopbackRunners, opts.Parallelism)
		eval = coord.Evaluator()
	}
	res, err := dse.Search(ctx, dse.Options{
		Families:           opts.Families,
		Workloads:          opts.Workloads,
		Budget:             opts.Budget,
		BatchSize:          opts.BatchSize,
		MaxRounds:          opts.MaxBatches,
		Seed:               opts.Seed,
		Scale:              cfg.Scale,
		InstrPerCore:       cfg.InstrPerCore,
		SimSeed:            cfg.Seed,
		Ratio16:            cfg.NMRatio16,
		ScreenInstrPerCore: opts.ScreenInstrPerCore,
		ScreenBudget:       opts.ScreenBudget,
		Parallelism:        opts.Parallelism,
		MaxPerParam:        opts.MaxPerParam,
		Checkpoint:         opts.Checkpoint,
		Resume:             opts.Resume,
		Progress:           progress,
		Eval:               eval,
		Store:              st,
	})
	out := ExploreResult{
		Frontier:  fromPoints(res.Frontier),
		Evaluated: fromPoints(res.Evaluated),
		Screened:  fromPoints(res.Screened),
		SpaceSize: res.SpaceSize,
		Batches:   res.Rounds,
		Resumed:   res.Resumed,
		Complete:  res.Complete,
	}
	if wire, werr := api.Encode(res.APIDoc()); werr == nil {
		out.wire = wire
	}
	if err != nil {
		return out, fmt.Errorf("hybridmem: %w", err)
	}
	return out, nil
}

// fromPoints projects internal search points through dse's wire
// mapping, the one that builds the served explore document.
func fromPoints(pts []dse.Point) []ExplorePoint {
	return dse.Result{Evaluated: pts}.APIDoc().Evaluated
}
