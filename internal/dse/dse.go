// Package dse is the design-space exploration engine: the H2DSE-style
// search the paper builds its Figure 11 trade-off analysis from,
// generalized over every family in the design registry.
//
// # Search algorithm
//
// The space is the union of each selected family's enumeration
// (design.Info.Enumerate): the cross product of per-parameter value
// ladders, filtered through the family's cross-parameter Check hook, in
// deterministic registry-then-odometer order. The search then proceeds
// in rounds of BatchSize candidates:
//
//   - Exhaustive: when the space fits the budget (or the budget is
//     unlimited), rounds walk the space in enumeration order.
//   - Budgeted: when the space exceeds the budget, the first half of the
//     budget is spent on seeded random sampling without replacement
//     (exploration), after which rounds switch to hill-climbing: the
//     ladder neighbors (design.Info.Neighbors) of the current Pareto
//     frontier, name-sorted, topped up with random candidates when the
//     neighborhood is exhausted.
//
// Every candidate of a round is evaluated concurrently through
// internal/exp's parallel runner across the selected workloads; rounds
// always run to completion, so the search stops at the first round
// boundary at or past the budget. All randomness comes from a splitmix64
// generator whose single-word state lives in the checkpoint, which makes
// the round sequence — and therefore the frontier — a pure function of
// the options and seed, regardless of interruption or parallelism.
//
// # Objectives
//
// Each feasible candidate gets an objective vector (see Objectives):
// geometric-mean speedup over the no-NM baseline (maximized), the DRAM
// capacity the organization spends (minimized), and its mean write
// traffic across both memory devices — fills, migrations, writebacks,
// demand writes and metadata combined (minimized). The Pareto frontier
// over these vectors is maintained incrementally as batches merge;
// candidates that fail to build at the simulated scale are recorded as
// infeasible so a resumed search does not retry them.
//
// # Multi-fidelity screening
//
// A search keeps its state in phases: one fidelity each, with its own
// instruction budget, evaluation budget, baseline, trail and frontier.
// Every search has a full-fidelity phase; Options.ScreenInstrPerCore
// adds a screening phase, which runs first. Both go through the same
// baseline, evaluation and restore paths. The screening phase explores
// up to ScreenBudget candidates at the truncated instruction budget
// with the round machinery above. When it is exhausted, its survivors
// — the screening frontier plus its screened feasible ladder neighbors,
// name-sorted — are promoted to the full phase and evaluated in
// checkpointed rounds up to Budget. Screening runs are an order of
// magnitude cheaper than full runs, so for the same total instruction
// budget the search covers several times more of the space. The
// screening fidelity is part of the checkpoint fingerprint, and the
// screened points are checkpointed alongside the full evaluations, so
// interrupted multi-fidelity searches resume byte-identically in
// either phase.
//
// # Checkpointing
//
// With Options.Checkpoint set, the search atomically rewrites a JSON
// state file after every completed round: schema version, an options
// fingerprint (everything the round sequence depends on, budget
// included), the RNG state, and each phase's baseline cycles and
// evaluated points in order. Options.Resume loads that file, rebuilds
// each phase's frontier by folding its points, and continues the round
// sequence exactly where the interrupted run left off: a search
// interrupted at any round boundary — by cancellation or by the
// MaxRounds pause — and resumed yields byte-identical results to an
// uninterrupted run at the same seed. Resume accepts only a state the
// search can reach and returns an error for any other: screening state
// without a screening phase, a baseline that is not one nonzero cycle
// count per workload, a design outside the space or twice in a trail,
// a feasible point with objectives no evaluation yields, a round count
// the trails cannot fill, or a full evaluation of an unpromoted design.
package dse

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"hybridmem/internal/config"
	"hybridmem/internal/design"
	_ "hybridmem/internal/design/all" // link every built-in organization into the registry
	"hybridmem/internal/exp"
	"hybridmem/internal/obs"
	"hybridmem/internal/store"
	"hybridmem/internal/workload"
)

// Options configures a search. The zero value of every field has a
// usable default; only genuinely invalid inputs (unknown family or
// workload names, Resume without Checkpoint) error.
type Options struct {
	// Families selects the design families to explore by base name;
	// nil means every registered family except the baseline.
	Families []string
	// Workloads selects the evaluation workloads by name; nil means all
	// 30 built-in benchmarks. Candidates are scored on their
	// geometric-mean behaviour across this set.
	Workloads []string
	// Budget bounds candidate evaluations; the search stops at the first
	// round boundary at or past it. <= 0 means exhaustive.
	Budget int
	// MaxRounds pauses the search after that many rounds in this
	// invocation (not counting checkpointed rounds), flushing the
	// checkpoint as usual; <= 0 means run to completion. A paused search
	// resumes exactly where it stopped — the programmatic form of an
	// interrupt at a round boundary.
	MaxRounds int
	// BatchSize is the round granularity: candidates evaluated (and
	// checkpointed) together. <= 0 means 8.
	BatchSize int
	// Seed drives the search's random sampling. 0 means 1.
	Seed uint64
	// Scale, InstrPerCore, SimSeed and Ratio16 configure the underlying
	// simulations (see exp.Runner); zero values mean the defaults
	// (config.DefaultScale, 200k instructions, seed 1, 1:16 NM:FM), and
	// values config.ValidateRun rejects, negative ones included, are
	// errors.
	Scale        int
	InstrPerCore uint64
	SimSeed      uint64
	Ratio16      int
	// ScreenInstrPerCore, when non-zero, enables multi-fidelity search:
	// candidates are first screened at this truncated instruction budget
	// and only the screening frontier (plus its screened feasible ladder
	// neighbors) is promoted to full-fidelity evaluation. Requires a
	// positive Budget.
	ScreenInstrPerCore uint64
	// ScreenBudget bounds screening evaluations; <= 0 means 4x Budget.
	// Only meaningful with ScreenInstrPerCore set.
	ScreenBudget int
	// Parallelism bounds concurrently evaluated runs; <= 0 means
	// GOMAXPROCS. It does not affect results.
	Parallelism int
	// MaxPerParam bounds the space enumeration; see design.EnumOptions.
	// Zero means 12 values per parameter.
	MaxPerParam int
	// Eval, when non-nil, routes every simulation batch — candidate
	// rounds and baselines, at either fidelity — through an external
	// evaluator instead of the in-process runner; the hook the cluster
	// coordinator uses to distribute a search. All search state (RNG,
	// batching, frontier folds, checkpoints) stays local, and results
	// travel as integer measurements, so a distributed search is
	// byte-identical to a single-process one. Eval is deliberately not
	// part of the checkpoint fingerprint: local and distributed runs of
	// the same search share checkpoints interchangeably.
	Eval Evaluator
	// Store, when non-nil, backs the search's runners with the shared
	// content-addressed result store (internal/store): evaluations whose
	// runs a past search — or a sweep, or another process sharing the
	// store directory — already simulated are recalled from disk, so
	// overlapping searches cost near zero. Like Eval, the store is not
	// part of the checkpoint fingerprint: it changes where results come
	// from, never what they are.
	Store *store.Store
	// SimCounter, when non-nil, counts simulations actually executed
	// (store and memo hits excluded), threaded through to every runner.
	SimCounter *obs.Counter
	// Checkpoint is the state-file path, rewritten atomically after
	// every round; empty disables checkpointing. Resume continues from
	// an existing checkpoint instead of starting fresh.
	Checkpoint string
	Resume     bool
	// Progress, when non-nil, is called after every merged round and
	// once more when the search completes.
	Progress func(Event)
	// Phase, when non-nil, receives the wall-clock duration of each
	// internal search phase (currently "frontier_fold", the per-round
	// Pareto merge) so serving layers can record phase timings. Like
	// Eval, Store and SimCounter, Phase observes the search without
	// steering it and is not part of the checkpoint fingerprint.
	Phase func(name string, d time.Duration)
}

// Event is one streaming progress report.
type Event struct {
	// Round counts completed rounds; Evaluated counts evaluated
	// candidates (including infeasible ones) against Budget and
	// SpaceSize; FrontierSize is the current Pareto set size.
	Round        int
	Evaluated    int
	Budget       int
	SpaceSize    int
	FrontierSize int
	// Screened counts screening-fidelity evaluations (multi-fidelity
	// searches only; zero otherwise).
	Screened int
	// Done marks the final event of the search.
	Done bool
}

// Result is the outcome of a search.
type Result struct {
	// Frontier is the Pareto-optimal subset of the evaluated feasible
	// candidates, in reporting order (ascending capacity).
	Frontier []Point `json:"frontier"`
	// Evaluated lists every evaluated candidate in evaluation order —
	// the deterministic audit trail of the search.
	Evaluated []Point `json:"evaluated"`
	// Screened lists the screening-fidelity evaluations of a
	// multi-fidelity search in evaluation order; empty (and omitted)
	// when screening is disabled. Screened objectives are measured at
	// ScreenInstrPerCore and are not comparable to Evaluated's.
	Screened  []Point `json:"screened,omitempty"`
	SpaceSize int     `json:"space_size"`
	Rounds    int     `json:"rounds"`
	// Resumed reports whether this search continued from a checkpoint;
	// Complete whether it ran to its natural end rather than pausing at
	// MaxRounds. Both are deliberately excluded from the JSON form,
	// which is identical for interrupted-and-resumed and uninterrupted
	// runs.
	Resumed  bool `json:"-"`
	Complete bool `json:"-"`
}

// Search runs a design-space exploration to completion (or budget, or
// cancellation). On cancellation it flushes a final checkpoint and
// returns the partial result alongside ctx.Err(); everything already
// merged remains valid and resumable.
func Search(ctx context.Context, opts Options) (Result, error) {
	s, err := newSearcher(opts)
	if err != nil {
		return Result{}, err
	}
	if opts.Resume {
		if opts.Checkpoint == "" {
			return Result{}, errors.New("dse: Resume requires a Checkpoint path")
		}
		ck, err := loadCheckpoint(opts.Checkpoint)
		if err != nil {
			return Result{}, err
		}
		if err := s.restore(ck); err != nil {
			return Result{}, err
		}
	} else {
		for _, ph := range []*phase{&s.full, s.screen} {
			if ph == nil {
				continue
			}
			if err := s.evalBaseline(ctx, ph); err != nil {
				return s.result(), err
			}
		}
	}
	roundsBefore := s.rounds
	for !s.done() {
		if opts.MaxRounds > 0 && s.rounds-roundsBefore >= opts.MaxRounds {
			return s.result(), nil // paused; Complete stays false
		}
		rngBefore := s.rng.state
		ph := s.current()
		batch := s.nextBatch(ph)
		if len(batch) == 0 {
			break
		}
		pts, err := s.evalBatch(ctx, ph, batch)
		if err != nil {
			// The aborted round never happened: restore the RNG so the
			// flushed checkpoint reflects the last completed round, from
			// which resume regenerates this round identically.
			s.rng.state = rngBefore
			if ferr := s.flush(); ferr != nil {
				err = errors.Join(err, ferr)
			}
			return s.result(), err
		}
		foldStart := time.Now()
		ph.record(pts)
		s.rounds++
		if s.opts.Phase != nil {
			s.opts.Phase("frontier_fold", time.Since(foldStart))
		}
		if err := s.flush(); err != nil {
			return s.result(), err
		}
		s.emit(false)
	}
	s.emit(true)
	res := s.result()
	res.Complete = true
	return res, nil
}

// phase is the state of one fidelity of a search. A budget <= 0 means
// the whole space; baseline holds cycles per workload in option order.
type phase struct {
	instr    uint64
	budget   int
	runner   *exp.Runner
	baseline []uint64
	pts      []Point
	seen     map[string]bool
	front    frontier
}

// exhausted reports whether the phase has spent its budget or
// evaluated the whole space.
func (p *phase) exhausted(space int) bool {
	return (p.budget > 0 && len(p.pts) >= p.budget) || len(p.pts) >= space
}

// record folds evaluated points into the phase's trail and frontier.
// Rounds never re-evaluate a design and restore rejects a trail that
// lists one twice, so every point is new.
func (p *phase) record(pts []Point) {
	for _, q := range pts {
		p.seen[q.Design] = true
		p.front.add(q)
	}
	p.pts = append(p.pts, pts...)
}

// searcher is the in-flight state of one search: the full-fidelity
// phase, and the screening phase of a multi-fidelity search (nil
// otherwise).
type searcher struct {
	opts     Options
	families []*design.Info
	wls      []workload.Spec
	enumOpts design.EnumOptions

	space    []design.Spec
	spaceIdx map[string]int

	rng     rng
	rounds  int
	full    phase
	screen  *phase
	resumed bool
}

// newSearcher validates and normalizes the options and enumerates the
// search space.
func newSearcher(opts Options) (*searcher, error) {
	if opts.BatchSize <= 0 {
		opts.BatchSize = 8
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Scale == 0 {
		opts.Scale = config.DefaultScale
	}
	if opts.InstrPerCore == 0 {
		opts.InstrPerCore = 200_000
	}
	if opts.SimSeed == 0 {
		opts.SimSeed = 1
	}
	if opts.Ratio16 == 0 {
		opts.Ratio16 = 1
	}
	if err := config.ValidateRun(opts.Scale, opts.Ratio16, opts.InstrPerCore); err != nil {
		return nil, fmt.Errorf("dse: %w", err)
	}
	if opts.ScreenInstrPerCore > 0 {
		if opts.Budget <= 0 {
			return nil, errors.New("dse: multi-fidelity screening requires a positive Budget")
		}
		if err := config.ValidateRun(opts.Scale, opts.Ratio16, opts.ScreenInstrPerCore); err != nil {
			return nil, fmt.Errorf("dse: screen fidelity: %w", err)
		}
		// Normalize the default here so explicit and defaulted spellings
		// fingerprint identically.
		if opts.ScreenBudget <= 0 {
			opts.ScreenBudget = 4 * opts.Budget
		}
	}
	// Normalize the enumeration bounds the same way EnumOptions resolves
	// them, so the checkpoint fingerprint — which embeds them — matches
	// between semantically identical searches (e.g. MaxPerParam 0 vs 12).
	if opts.MaxPerParam <= 0 {
		opts.MaxPerParam = 12
	} else if opts.MaxPerParam < 2 {
		opts.MaxPerParam = 2
	}
	s := &searcher{
		opts:     opts,
		enumOpts: design.EnumOptions{MaxPerParam: opts.MaxPerParam},
		rng:      rng{state: opts.Seed},
	}
	if opts.Families == nil {
		for _, info := range design.AllInfos() {
			if info.Kind != design.KindBaseline {
				s.families = append(s.families, info)
			}
		}
	} else {
		for _, name := range opts.Families {
			info, ok := design.LookupInfo(name)
			if !ok {
				return nil, fmt.Errorf("dse: unknown design family %q", name)
			}
			s.families = append(s.families, info)
		}
	}
	if len(s.families) == 0 {
		return nil, errors.New("dse: no design families to explore")
	}
	if opts.Workloads == nil {
		s.wls = workload.Specs()
	} else {
		for _, name := range opts.Workloads {
			wl, ok := workload.ByName(name)
			if !ok {
				return nil, fmt.Errorf("dse: unknown workload %q", name)
			}
			s.wls = append(s.wls, wl)
		}
	}
	if len(s.wls) == 0 {
		return nil, errors.New("dse: no workloads to evaluate on")
	}
	s.spaceIdx = map[string]int{}
	for _, info := range s.families {
		specs, err := info.Enumerate(s.enumOpts)
		if err != nil {
			return nil, err
		}
		for _, spec := range specs {
			if _, dup := s.spaceIdx[spec.Name]; dup {
				continue
			}
			s.spaceIdx[spec.Name] = len(s.space)
			s.space = append(s.space, spec)
		}
	}
	if len(s.space) == 0 {
		return nil, errors.New("dse: the selected families enumerate to an empty space")
	}
	runner := func(instr uint64) *exp.Runner {
		return &exp.Runner{Scale: opts.Scale, InstrPerCore: instr, Seed: opts.SimSeed,
			Parallelism: opts.Parallelism, Store: opts.Store, SimCounter: opts.SimCounter}
	}
	s.full = phase{instr: opts.InstrPerCore, budget: opts.Budget, runner: runner(opts.InstrPerCore), seen: map[string]bool{}}
	if opts.ScreenInstrPerCore > 0 {
		// At equal fidelities the phases share one runner, so screened
		// runs are memo hits in the full phase.
		s.screen = &phase{instr: opts.ScreenInstrPerCore, budget: opts.ScreenBudget, runner: s.full.runner, seen: map[string]bool{}}
		if opts.ScreenInstrPerCore != opts.InstrPerCore {
			s.screen.runner = runner(opts.ScreenInstrPerCore)
		}
	}
	return s, nil
}

// current returns the phase the next round belongs to: the screening
// phase until it is exhausted, then the full-fidelity one.
func (s *searcher) current() *phase {
	if s.screen != nil && !s.screen.exhausted(len(s.space)) {
		return s.screen
	}
	return &s.full
}

// done reports whether the search has nothing left to do: the current
// phase is the full-fidelity one and it is exhausted.
func (s *searcher) done() bool {
	ph := s.current()
	return ph == &s.full && ph.exhausted(len(s.space))
}

// fingerprint encodes every option the round sequence depends on —
// including the budget, which sets the exploration/hill-climb
// boundary. Pausing and resuming therefore happens at a fixed budget
// (interrupt via MaxRounds or cancellation), never by growing it.
func (s *searcher) fingerprint() string {
	fams := make([]string, len(s.families))
	for i, f := range s.families {
		fams[i] = f.Name
	}
	wls := make([]string, len(s.wls))
	for i, wl := range s.wls {
		wls[i] = wl.Name
	}
	// ubound=0 is the fixed trace of a removed option (a bound for
	// parameters unbounded above, which Register now rejects); it stays
	// so that existing checkpoints keep resuming.
	fp := fmt.Sprintf("v%d|fam=%s|wl=%s|budget=%d|seed=%d|simseed=%d|scale=%d|instr=%d|ratio=%d|batch=%d|maxvals=%d|ubound=0",
		checkpointVersion, strings.Join(fams, ","), strings.Join(wls, ","), s.opts.Budget,
		s.opts.Seed, s.opts.SimSeed, s.opts.Scale, s.opts.InstrPerCore,
		s.opts.Ratio16, s.opts.BatchSize, s.enumOpts.MaxPerParam)
	// The screening fidelity changes the round sequence, so it is part of
	// the fingerprint — but only when enabled, so checkpoints written by
	// single-fidelity searches (including pre-screening ones) stay valid.
	if s.screen != nil {
		fp += fmt.Sprintf("|screen=%d|sbudget=%d", s.opts.ScreenInstrPerCore, s.opts.ScreenBudget)
	}
	return fp
}

// restore loads a checkpoint into the searcher, one phase at a time,
// and rejects a state the search cannot reach (see Checkpointing).
func (s *searcher) restore(ck *checkpoint) error {
	if want := s.fingerprint(); ck.Fingerprint != want {
		return fmt.Errorf("dse: resume: checkpoint was written by a different search\n  checkpoint: %s\n  options:    %s", ck.Fingerprint, want)
	}
	if ck.SpaceSize != len(s.space) {
		return fmt.Errorf("dse: resume: checkpoint space size %d, options enumerate %d", ck.SpaceSize, len(s.space))
	}
	n := 0
	for _, l := range []struct {
		ph       *phase
		name     string
		baseline []uint64
		pts      []Point
	}{
		{s.screen, "screening", ck.ScreenBaselineCycles, ck.Screened},
		{&s.full, "full", ck.BaselineCycles, ck.Evaluated},
	} {
		if l.ph == nil {
			if len(l.baseline) > 0 || len(l.pts) > 0 {
				return errors.New("dse: resume: a single-fidelity checkpoint carries screening state")
			}
			continue
		}
		if len(l.baseline) != len(s.wls) || slices.Contains(l.baseline, 0) {
			return fmt.Errorf("dse: resume: checkpoint %s baseline %v is not one nonzero cycle count per workload (%d)", l.name, l.baseline, len(s.wls))
		}
		l.ph.baseline = l.baseline
		for _, p := range l.pts {
			i, ok := s.spaceIdx[p.Design]
			switch {
			case !ok:
				return fmt.Errorf("dse: resume: checkpointed %s design %q is outside the search space", l.name, p.Design)
			case l.ph.seen[p.Design]:
				return fmt.Errorf("dse: resume: checkpointed %s trail lists %q twice", l.name, p.Design)
			case !p.Infeasible && (!(p.Speedup > 0) || p.TrafficGB < 0 || p.CapacityMB != capacityMB(s.space[i], s.opts.Ratio16)):
				return fmt.Errorf("dse: resume: checkpointed %s point %q has objectives no evaluation yields: %+v", l.name, p.Design, p.Objectives)
			}
			l.ph.record([]Point{p})
		}
		n += len(l.pts)
	}
	if ck.Rounds < 0 || n < ck.Rounds || n > ck.Rounds*s.opts.BatchSize {
		return fmt.Errorf("dse: resume: %d checkpointed points cannot fill %d rounds of at most %d", n, ck.Rounds, s.opts.BatchSize)
	}
	if s.screen != nil && len(s.full.pts) > 0 {
		promoted := map[string]bool{}
		if s.screen.exhausted(len(s.space)) {
			for _, c := range s.promoted() {
				promoted[c.Name] = true
			}
		}
		for _, p := range s.full.pts {
			if !promoted[p.Design] {
				return fmt.Errorf("dse: resume: checkpointed full evaluation of %q was never promoted", p.Design)
			}
		}
	}
	s.rng.state = ck.RNG
	s.rounds = ck.Rounds
	s.resumed = true
	return nil
}

// evalBaseline runs the no-NM baseline once per workload at the phase's
// fidelity — the normalization point of its candidates' speedups.
func (s *searcher) evalBaseline(ctx context.Context, ph *phase) error {
	runs := make([]exp.Run, len(s.wls))
	for i, wl := range s.wls {
		runs[i] = exp.Run{Design: "Baseline", Workload: wl.Name, Ratio16: 1}
	}
	res, err := s.runBatch(ctx, ph, runs)
	if err != nil {
		return fmt.Errorf("dse: baseline: %w", err)
	}
	if err := batchErr(res); err != nil {
		return fmt.Errorf("dse: baseline: %w", err)
	}
	cycles := make([]uint64, len(s.wls))
	for i, r := range res {
		if r.Cycles == 0 {
			return fmt.Errorf("dse: baseline run of %s completed no cycles", s.wls[i].Name)
		}
		cycles[i] = r.Cycles
	}
	ph.baseline = cycles
	return nil
}

// nextBatch generates the next round of candidates for the given phase:
// the promotion list for the full phase of a multi-fidelity search, the
// round generator otherwise. Only random picks advance the RNG, so
// exhaustive searches are RNG-independent.
func (s *searcher) nextBatch(ph *phase) []design.Spec {
	if ph == &s.full && s.screen != nil {
		return s.nextPromoted()
	}
	return s.generateBatch(ph)
}

// generateBatch is the round generator: exhaustive enumeration when the
// space fits the phase's budget, else seeded exploration for the first
// half of the budget, then hill-climbing on the phase's frontier's
// ladder neighborhoods.
func (s *searcher) generateBatch(ph *phase) []design.Spec {
	var unseen []design.Spec
	for _, c := range s.space {
		if !ph.seen[c.Name] {
			unseen = append(unseen, c)
		}
	}
	if len(unseen) == 0 {
		return nil
	}
	b := min(s.opts.BatchSize, len(unseen))
	if ph.budget <= 0 || len(s.space) <= ph.budget {
		return unseen[:b] // exhaustive: enumeration order
	}
	if len(ph.pts) < ph.budget/2 {
		return s.randomPick(unseen, b) // exploration
	}
	// Hill-climb: the unseen ladder neighbors of the frontier,
	// name-sorted, topped up randomly when the neighborhood runs dry.
	var nbrs []design.Spec
	inBatch := map[string]bool{}
	for _, p := range ph.front.sortedByName() {
		spec := s.space[s.spaceIdx[p.Design]]
		ns, err := spec.Info.Neighbors(spec, s.enumOpts)
		if err != nil {
			continue // enumeration bounds were already validated
		}
		for _, n := range ns {
			if _, ok := s.spaceIdx[n.Name]; !ok {
				continue
			}
			if ph.seen[n.Name] || inBatch[n.Name] {
				continue
			}
			inBatch[n.Name] = true
			nbrs = append(nbrs, n)
		}
	}
	sort.Slice(nbrs, func(i, j int) bool { return nbrs[i].Name < nbrs[j].Name })
	if len(nbrs) > b {
		nbrs = nbrs[:b]
	}
	if len(nbrs) < b {
		rest := unseen[:0:0]
		for _, c := range unseen {
			if !inBatch[c.Name] {
				rest = append(rest, c)
			}
		}
		nbrs = append(nbrs, s.randomPick(rest, b-len(nbrs))...)
	}
	return nbrs
}

// promoted derives the full-fidelity promotion list from the completed
// screening phase: the screening frontier's designs in name order,
// followed by their screened feasible ladder neighbors in name order.
// It is a pure function of the screened points, so a resumed search
// recomputes the identical list.
func (s *searcher) promoted() []design.Spec {
	feasible := make(map[string]bool, len(s.screen.pts))
	for _, p := range s.screen.pts {
		if !p.Infeasible {
			feasible[p.Design] = true
		}
	}
	inSet := map[string]bool{}
	var out []design.Spec
	add := func(name string) {
		if inSet[name] {
			return
		}
		inSet[name] = true
		out = append(out, s.space[s.spaceIdx[name]])
	}
	front := s.screen.front.sortedByName()
	for _, p := range front {
		add(p.Design)
	}
	var nbrNames []string
	for _, p := range front {
		spec := s.space[s.spaceIdx[p.Design]]
		ns, err := spec.Info.Neighbors(spec, s.enumOpts)
		if err != nil {
			continue
		}
		for _, n := range ns {
			if _, ok := s.spaceIdx[n.Name]; !ok {
				continue
			}
			if feasible[n.Name] && !inSet[n.Name] {
				nbrNames = append(nbrNames, n.Name)
			}
		}
	}
	sort.Strings(nbrNames)
	for _, n := range nbrNames {
		add(n)
	}
	return out
}

// nextPromoted walks the promotion list in order, skipping already
// fully-evaluated designs. RNG-free: the full-fidelity phase of a
// multi-fidelity search is entirely determined by the screening result.
func (s *searcher) nextPromoted() []design.Spec {
	var out []design.Spec
	for _, c := range s.promoted() {
		if s.full.seen[c.Name] {
			continue
		}
		out = append(out, c)
		if len(out) == s.opts.BatchSize {
			break
		}
	}
	return out
}

// randomPick draws up to k distinct candidates from pool via the
// checkpointed RNG (swap-remove sampling without replacement).
func (s *searcher) randomPick(pool []design.Spec, k int) []design.Spec {
	pool = append([]design.Spec(nil), pool...)
	k = min(k, len(pool))
	out := make([]design.Spec, 0, k)
	for range k {
		i := s.rng.intn(len(pool))
		out = append(out, pool[i])
		pool[i] = pool[len(pool)-1]
		pool = pool[:len(pool)-1]
	}
	return out
}

// evalBatch evaluates one round of the given phase: every (candidate,
// workload) run fans out through one runBatch call. A canceled context
// (or evaluator failure) aborts the whole round — nothing of it is
// recorded; a candidate whose runs fail for any other reason becomes an
// infeasible point.
func (s *searcher) evalBatch(ctx context.Context, ph *phase, batch []design.Spec) ([]Point, error) {
	runs := make([]exp.Run, 0, len(batch)*len(s.wls))
	for _, c := range batch {
		for _, wl := range s.wls {
			runs = append(runs, exp.Run{Design: c.Name, Workload: wl.Name, Ratio16: s.opts.Ratio16})
		}
	}
	res, err := s.runBatch(ctx, ph, runs)
	if err != nil {
		return nil, err
	}
	pts := make([]Point, len(batch))
	for i, c := range batch {
		pts[i] = s.score(c, res[i*len(s.wls):(i+1)*len(s.wls)], ph.baseline)
	}
	return pts, nil
}

// score folds one candidate's per-workload results into its objective
// vector, normalized to the baseline of the fidelity it ran at. A
// zero-cycle slot marks a failed run; its transported error labels the
// infeasible point.
func (s *searcher) score(c design.Spec, res []EvalResult, baseline []uint64) Point {
	p := Point{Design: c.Name}
	var logSpeedup, traffic float64
	for i, r := range res {
		if r.Cycles == 0 {
			p.Infeasible = true
			if r.Err != "" {
				p.Err = r.Err
			} else {
				p.Err = "zero-cycle run"
			}
			return p
		}
		logSpeedup += math.Log(float64(baseline[i]) / float64(r.Cycles))
		traffic += float64(r.WriteBytes)
	}
	n := float64(len(res))
	p.Speedup = math.Exp(logSpeedup / n)
	p.TrafficGB = traffic / n / 1e9
	p.CapacityMB = capacityMB(c, s.opts.Ratio16)
	return p
}

// capacityMB resolves the capacity objective of a candidate: the
// paper-scale DRAM-cache size for families that parameterize it, the
// full near-memory size for the rest, zero for NM-less designs.
func capacityMB(c design.Spec, ratio16 int) float64 {
	for i, p := range c.Info.Params {
		if p.Name == "cacheMB" {
			return float64(c.Values[i].Int)
		}
	}
	if c.Info.NeedsNM {
		return float64(ratio16) * 1024 // ratio16/16 of 16 GB FM, in MB
	}
	return 0
}

// flush rewrites the checkpoint, if one is configured.
func (s *searcher) flush() error {
	if s.opts.Checkpoint == "" {
		return nil
	}
	ck := &checkpoint{
		Version:        checkpointVersion,
		Fingerprint:    s.fingerprint(),
		RNG:            s.rng.state,
		Rounds:         s.rounds,
		SpaceSize:      len(s.space),
		BaselineCycles: s.full.baseline,
		Evaluated:      s.full.pts,
	}
	if s.screen != nil {
		ck.ScreenBaselineCycles, ck.Screened = s.screen.baseline, s.screen.pts
	}
	return saveCheckpoint(s.opts.Checkpoint, ck)
}

// screened returns the screening trail; nil for a single-fidelity
// search.
func (s *searcher) screened() []Point {
	if s.screen == nil {
		return nil
	}
	return s.screen.pts
}

// emit streams a progress event.
func (s *searcher) emit(done bool) {
	if s.opts.Progress == nil {
		return
	}
	s.opts.Progress(Event{
		Round:        s.rounds,
		Evaluated:    len(s.full.pts),
		Budget:       s.opts.Budget,
		SpaceSize:    len(s.space),
		FrontierSize: len(s.full.front.pts),
		Screened:     len(s.screened()),
		Done:         done,
	})
}

// result assembles the (possibly partial) outcome.
func (s *searcher) result() Result {
	return Result{
		Frontier:  s.full.front.sorted(),
		Evaluated: append([]Point(nil), s.full.pts...),
		Screened:  append([]Point(nil), s.screened()...),
		SpaceSize: len(s.space),
		Rounds:    s.rounds,
		Resumed:   s.resumed,
	}
}
