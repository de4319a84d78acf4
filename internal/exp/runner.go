// Package exp defines the paper's experiments: one function per table and
// figure of the evaluation (Figures 1-2, Table 1-2, Figures 11-18), shared
// by cmd/experiments and the benchmark harness. A Runner memoizes
// (workload, design, NM-ratio) runs so figures built from the same sweep
// (12, 13, 15-18) reuse results, and evaluates independent runs across a
// worker pool (see ResultsParallel and Sweep) so regenerating the
// evaluation scales with the machine's cores. The machines runs simulate
// on outlive the runner that built them: a process-wide pool keeps the
// machines of finished runs, and a later run of the same design and
// system, from any runner, resets one instead of rebuilding it (see
// execute).
//
// Designs are resolved through the self-registering catalog in
// internal/design: the engine imports no internal/baselines package and
// holds no design list or build switch of its own — names parse to
// validated, buildable specs before any simulation state exists, and the
// registry's metadata drives the figure design lists below. (The sole
// organization dependency left is ablations.go reading Hybrid2's path
// counters through internal/core.)
package exp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"slices"
	"sync"
	"sync/atomic"

	"hybridmem/internal/config"
	"hybridmem/internal/design"
	_ "hybridmem/internal/design/all" // link every built-in organization into the registry
	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
	"hybridmem/internal/obs"
	"hybridmem/internal/sim"
	"hybridmem/internal/store"
	"hybridmem/internal/telemetry"
	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
)

// MainDesigns are the six designs of Figures 12-18, in the paper's order,
// straight from the registry.
var MainDesigns = design.Names(design.KindMain)

// ExtraDesigns are related-work designs from the paper's §2 that are not
// part of its evaluation figures but are implemented for completeness,
// straight from the registry.
var ExtraDesigns = design.Names(design.KindExtra)

// Runner executes and memoizes simulation runs.
type Runner struct {
	Scale        int
	InstrPerCore uint64
	Seed         uint64
	// Prefetch enables the LLC next-line prefetcher for all runs.
	Prefetch bool
	// Workload subset; nil means all 30.
	Subset []workload.Spec
	// Parallelism bounds the workers used by ResultsParallel and Sweep;
	// <= 0 means GOMAXPROCS. 1 forces strictly serial execution.
	Parallelism int
	// TraceWindow bounds the per-core lookahead of streaming trace
	// replay, in records; <= 0 means trace.DefaultWindow, and above
	// trace.MaxWindow RunTrace fails.
	TraceWindow int
	// Store, when non-nil, persists every completed run (and recalls
	// past ones) through the shared content-addressed result store: a
	// run found on disk is decoded instead of simulated, and runs this
	// runner executes become disk hits for every later runner — across
	// restarts and across processes sharing the directory. Keys cover
	// every knob above (see store.RunKey), so a store can safely back
	// runners with different configurations.
	Store *store.Store
	// MemoEntries bounds the in-memory memo cache, which previously
	// grew without limit over a long-lived server or coordinator
	// process; <= 0 means 4096 entries. Evicted runs re-resolve through
	// the store's disk tier (or re-simulate) with identical results.
	MemoEntries int
	// SimCounter, when non-nil, is incremented for every simulation the
	// runner actually executes — not for memo or store hits — so
	// serving layers can assert and report how much engine work a
	// request really cost.
	SimCounter *obs.Counter
	// Telemetry, when non-nil, samples every run this runner executes:
	// ResultErr, ResultsParallel* and RunTrace attach an epoch sampler
	// and deliver each run's series through Telemetry.OnSeries. Sampled
	// runs bypass the memo and the store; their results are identical to
	// unsampled ones — see TelemetryOptions.
	Telemetry *TelemetryOptions

	mu     sync.Mutex
	memo   *store.LRU[memoVal]
	flight *store.Flight[memoVal]
}

// memoVal is one settled run: its result or its error, memoized
// together exactly as the old per-key future retained them.
type memoVal struct {
	res sim.Result
	err error
}

// defaultMemoEntries bounds the memo when MemoEntries is unset: large
// enough for the full evaluation's cross product, small enough that a
// long-lived server can never grow without limit.
const defaultMemoEntries = 4096

// NewRunner returns a runner at the default scale and instruction budget.
func NewRunner() *Runner {
	return &Runner{Scale: config.DefaultScale, InstrPerCore: 1_000_000, Seed: 1}
}

// NewQuickRunner returns a reduced-cost runner (shorter streams, one
// third of the workloads) for smoke runs and benchmarks.
func NewQuickRunner() *Runner {
	r := NewRunner()
	r.InstrPerCore = 250_000
	all := workload.Specs()
	for i := 0; i < len(all); i += 3 {
		r.Subset = append(r.Subset, all[i])
	}
	return r
}

// Workloads returns the workloads this runner sweeps.
func (r *Runner) Workloads() []workload.Spec {
	if r.Subset != nil {
		return r.Subset
	}
	return workload.Specs()
}

// workers resolves the effective worker count.
func (r *Runner) workers() int {
	if r.Parallelism > 0 {
		return r.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// clone returns a runner with the same knobs but its own memo cache —
// used by studies that vary a knob (seed, prefetcher) per sub-sweep. The
// persistent store and the simulation counter are shared: store keys
// cover every knob, so sub-sweeps reuse and contribute entries safely.
// Machines are never the runner's own: every runner takes them from
// the process-wide pool.
func (r *Runner) clone() *Runner {
	return &Runner{
		Scale:        r.Scale,
		InstrPerCore: r.InstrPerCore,
		Seed:         r.Seed,
		Prefetch:     r.Prefetch,
		Subset:       r.Subset,
		Parallelism:  r.Parallelism,
		TraceWindow:  r.TraceWindow,
		Store:        r.Store,
		MemoEntries:  r.MemoEntries,
		SimCounter:   r.SimCounter,
		Telemetry:    r.Telemetry,
	}
}

// system resolves the scaled system for an NM:FM ratio of ratio16:16.
func (r *Runner) system(ratio16 int) config.System {
	sys := config.Scaled(r.Scale, ratio16)
	sys.InstrPerCore = r.InstrPerCore
	sys.Seed = r.Seed
	sys.NextLinePrefetch = r.Prefetch
	return sys
}

// RunSpec identifies one independent simulation run of a sweep.
type RunSpec struct {
	Workload workload.Spec
	Design   string
	Ratio16  int
}

// Run identifies one simulation by name: a registered design name, a
// workload name, and the NM:FM capacity ratio in sixteenths. It is the
// wire form of a RunSpec, carried by cluster shard requests and handed
// to design-space search evaluators; ResultsByName executes it.
type Run struct {
	Design   string `json:"design"`
	Workload string `json:"workload"`
	Ratio16  int    `json:"ratio16"`
}

// memoState returns the runner's memo cache and singleflight group,
// creating them on first use.
func (r *Runner) memoState() (*store.LRU[memoVal], *store.Flight[memoVal]) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.memo == nil {
		n := r.MemoEntries
		if n <= 0 {
			n = defaultMemoEntries
		}
		r.memo = store.NewLRU[memoVal](n, 0, nil)
		r.flight = store.NewFlight[memoVal]()
	}
	return r.memo, r.flight
}

// MemoStats snapshots the in-memory memo cache's counters — test and
// metrics visibility into the bounded tier.
func (r *Runner) MemoStats() store.LRUStats {
	memo, _ := r.memoState()
	return memo.Stats()
}

// resolve parses a run's design and normalizes its ratio: a design
// without near memory runs once for every ratio, as ratio 1.
func resolve(designName string, ratio16 int) (design.Spec, int, error) {
	spec, err := design.Parse(designName)
	if err != nil {
		return design.Spec{}, 0, err
	}
	if !spec.Info.NeedsNM {
		ratio16 = 1
	}
	return spec, ratio16, nil
}

// runKey is the canonical store key of one (already ratio-normalized)
// run of this runner.
func (r *Runner) runKey(designName, workloadName string, ratio16 int) string {
	return store.RunKey(designName, workloadName, ratio16, r.Scale, r.InstrPerCore, r.Seed, r.Prefetch)
}

// RunKey is the store key this runner persists and recalls a run's
// record under: store.RunKey over the runner's knobs after the design
// resolves and its ratio normalizes. Every layer that persists runs
// derives keys here, so they all address the same records. A malformed
// design name is an error.
func (r *Runner) RunKey(designName, workloadName string, ratio16 int) (string, error) {
	_, ratio16, err := resolve(designName, ratio16)
	if err != nil {
		return "", err
	}
	return r.runKey(designName, workloadName, ratio16), nil
}

// Recall decodes the run record stored under key in the store's disk
// tier. An absent or undecodable record (one written before a layout
// change that forgot to bump the engine version) reports false, and the
// run re-simulates.
func (r *Runner) Recall(key string) (sim.Result, bool) {
	data, ok := r.Store.GetDisk(key)
	if !ok {
		return sim.Result{}, false
	}
	var res sim.Result
	if err := json.Unmarshal(data, &res); err != nil {
		return sim.Result{}, false
	}
	return res, true
}

// Persist writes res as the run record under key to the store's disk
// tier; without one it does nothing.
func (r *Runner) Persist(key string, res sim.Result) {
	if !r.Store.HasDisk() {
		return
	}
	if data, err := json.Marshal(res); err == nil {
		r.Store.PutDisk(key, data)
	}
}

// ResultErr runs (or recalls) one workload on one design at an NM ratio.
// The runner's scale and instruction budget and the ratio as passed must
// pass config.ValidateRun, and the design name resolves through the
// registry, before anything is cached or simulated: a bad configuration,
// a malformed name or an out-of-range parameter fails here. Duplicate
// in-flight runs coalesce: concurrent callers of the same (workload,
// design, ratio) block on one simulation and share its result. With a
// Store attached, a run found (and verified) in the store's disk tier is
// decoded instead of simulated, and completed simulations are persisted
// for every future runner sharing the store. With Telemetry set the run
// is sampled instead: it always executes and its series goes to
// OnSeries.
func (r *Runner) ResultErr(wl workload.Spec, designName string, ratio16 int) (sim.Result, error) {
	return r.result(wl, designName, ratio16, 0)
}

// result is ResultErr for the run'th spec of a call, the index that
// tags its telemetry.
func (r *Runner) result(wl workload.Spec, designName string, ratio16, run int) (sim.Result, error) {
	if err := config.ValidateRun(r.Scale, ratio16, r.InstrPerCore); err != nil {
		return sim.Result{}, fmt.Errorf("exp: run %s/%s: %w", wl.Name, designName, err)
	}
	spec, ratio16, err := resolve(designName, ratio16)
	if err != nil {
		return sim.Result{}, err
	}
	if r.Telemetry != nil {
		return r.execute(wl.Name, designName, spec, ratio16, run, workloadRun(wl))
	}
	key := r.runKey(designName, wl.Name, ratio16)
	memo, flight := r.memoState()
	if v, ok := memo.Get(key); ok {
		return v.res, v.err
	}
	v, _, _ := flight.Do(key, func() (memoVal, error) {
		// Losing a memo race is cheaper than re-simulating: re-check
		// from inside the slot before touching disk or the engine.
		if v, ok := memo.Peek(key); ok {
			return v, nil
		}
		if res, ok := r.Recall(key); ok {
			return memoVal{res: res}, nil
		}
		res, err := r.execute(wl.Name, designName, spec, ratio16, run, workloadRun(wl))
		if err != nil {
			return memoVal{err: err}, nil
		}
		r.Persist(key, res)
		return memoVal{res: res}, nil
	})
	memo.Put(key, v)
	return v.res, v.err
}

// machine is the system one run simulates on: spec's design built over
// its devices for sys, either fresh or a previous run's machine reset to
// the state a build for sys returns, and the host (LLC and cores) in
// front of them. The host depends only on the LLC's geometry, so a
// machine built for another design or system inherits the host of the
// idle machine it replaces when both LLCs have one size (see takeHost).
// sys is the system of the machine's latest run. smp is the run's
// sampler, nil when telemetry is off.
type machine struct {
	spec   design.Spec
	ms     memtypes.Resetter
	nm, fm *memsys.Device
	host   *sim.Host
	sys    config.System
	smp    *telemetry.Sampler
}

// matches reports whether m, reset for sys, is what spec.Build(sys)
// would return: it has spec's design and sys's geometry. The seed and
// the instruction budget are not part of a machine: no design's build
// reads the budget, and Reset takes the seed.
func (m *machine) matches(spec design.Spec, sys config.System) bool {
	return geometry(m.sys) == geometry(sys) && m.spec.Info == spec.Info && slices.Equal(m.spec.Values, spec.Values)
}

// geometry is sys without what a reset sets: its seed and its
// instruction budget.
func geometry(sys config.System) config.System {
	sys.Seed, sys.InstrPerCore = 0, 0
	return sys
}

// reset returns m's design, devices and host to the state a build for
// sys returns, and makes sys the system of m's next run.
func (m *machine) reset(sys config.System) {
	m.ms.Reset(sys.Seed)
	if m.nm != nil {
		m.nm.Reset()
	}
	m.fm.Reset()
	m.host.Reset()
	m.sys = sys
}

// poolFloor is the least count of idle machines the pool keeps: one for
// each design of the paper's evaluation (the baseline and the main
// designs), so that a sweep over all of them, repeated, resets every
// machine instead of building it, plus one, so that a run of some other
// design or system between two such sweeps evicts nothing they come back
// to.
var poolFloor = len(MainDesigns) + 2

// pool holds the machines of finished runs, oldest first, for every
// runner in the process: a run of the same design and geometry resets
// one, to its own seed, instead of building its own (see execute). A
// machine taken from it is its run's alone until putIdle returns it.
var pool struct {
	sync.Mutex
	idle []*machine
}

// builds counts the machines execute built rather than reused.
var builds atomic.Int64

// MachineBuilds reports how many machines the process's runs have built
// rather than taken from the pool and reset.
func MachineBuilds() int64 { return builds.Load() }

// poolBound is the count of idle machines the pool keeps for r: the
// floor, or one per worker when r has more, so that every worker of a
// parallel sweep finds its machine again.
func (r *Runner) poolBound() int {
	return max(poolFloor, r.workers())
}

// takeIdle hands out the oldest idle machine that a reset makes what
// spec builds for sys, if there is one.
func takeIdle(spec design.Spec, sys config.System) *machine {
	pool.Lock()
	defer pool.Unlock()
	for i, m := range pool.idle {
		if m.matches(spec, sys) {
			pool.idle = slices.Delete(pool.idle, i, i+1)
			return m
		}
	}
	return nil
}

// takeHost returns the host for a machine just built for sys. While the
// pool holds fewer than bound machines the new machine gets a new host.
// Otherwise the new machine takes over the slot of the oldest idle
// machine, which is dropped, and keeps its host when both LLCs have one
// size: the pool's machines then never outnumber bound once the run
// returns its own, and a change of design or NM ratio costs no new LLC.
func takeHost(sys config.System, bound int) *sim.Host {
	pool.Lock()
	var old *machine
	if len(pool.idle) >= bound {
		old = pool.idle[0]
		pool.idle = slices.Delete(pool.idle, 0, 1)
	}
	pool.Unlock()
	if old == nil || old.sys.LLCBytes != sys.LLCBytes {
		return sim.NewHost(sys)
	}
	old.host.Reset()
	return old.host
}

// putIdle returns the machine of a successful run to the pool, dropping
// the oldest idle machines beyond bound.
func putIdle(m *machine, bound int) {
	m.smp = nil // the sampler belongs to the finished run
	pool.Lock()
	defer pool.Unlock()
	if n := len(pool.idle) - bound + 1; n > 0 {
		pool.idle = slices.Delete(pool.idle, 0, n)
	}
	pool.idle = append(pool.idle, m)
}

// workloadRun simulates a synthetic workload on a machine.
func workloadRun(wl workload.Spec) func(*machine) (sim.Result, error) {
	return func(m *machine) (sim.Result, error) {
		return sim.RunOn(m.host, wl, m.ms, m.nm, m.fm, m.sys, m.smp), nil
	}
}

// execute runs simulate on a machine of spec's design at ratio16: the
// one machine-and-simulate path behind every run method. The machine is
// an idle one from the pool when an earlier run, of any runner, built
// the same design for a system of the same geometry — reset to the
// run's seed instead of rebuilt, with identical results — and freshly
// built otherwise. A sweep that comes back to a design thus builds it
// once. With Telemetry set a sampler rides along and the settled series
// goes to OnSeries, tagged with run.
// A panic from the simulation settles as this run's error instead of
// killing a worker goroutine or poisoning the memo with a zero result,
// and the machine of a failed run is dropped; construction-time panics
// are already errors from Spec.Build. A failed build takes no host, so
// an infeasible design point drops no idle machine. The run carries
// pprof labels design, workload and phase (build or reset, then
// simulate), so CPU profiles attribute its samples.
func (r *Runner) execute(name, designName string, spec design.Spec, ratio16, run int, simulate func(*machine) (sim.Result, error)) (res sim.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = sim.Result{}, fmt.Errorf("exp: run %s/%s: %v", name, designName, p)
		}
	}()
	sys := r.system(ratio16)
	labels := func(phase string) pprof.LabelSet {
		return pprof.Labels("design", designName, "workload", name, "phase", phase)
	}
	ctx := context.Background()
	bound := r.poolBound()
	m := takeIdle(spec, sys)
	if m != nil {
		pprof.Do(ctx, labels("reset"), func(context.Context) { m.reset(sys) })
	} else {
		m = &machine{spec: spec, sys: sys}
		pprof.Do(ctx, labels("build"), func(context.Context) {
			if m.ms, m.nm, m.fm, err = spec.Build(sys); err == nil {
				m.host = takeHost(sys, bound)
			}
		})
		if err != nil {
			return sim.Result{}, err
		}
		builds.Add(1)
	}
	if r.Telemetry != nil {
		m.smp = r.Telemetry.sampler(run)
	}
	r.SimCounter.Inc()
	pprof.Do(ctx, labels("simulate"), func(context.Context) { res, err = simulate(m) })
	if err != nil {
		return sim.Result{}, err
	}
	if m.smp != nil && r.Telemetry.OnSeries != nil {
		r.Telemetry.OnSeries(run, m.smp.Series())
	}
	putIdle(m, bound)
	return res, nil
}

// Result is the panicking convenience form of ResultErr, for call sites
// whose design names are statically known to be well-formed.
func (r *Runner) Result(wl workload.Spec, designName string, ratio16 int) sim.Result {
	res, err := r.ResultErr(wl, designName, ratio16)
	if err != nil {
		panic(err)
	}
	return res
}

// parallelForCtx runs fn(i) for every i in [0, n) across the runner's
// worker pool, serially when one worker suffices. Errors are joined in
// index order; one failing index never aborts the others, but a canceled
// context stops promptly: indices not yet dispatched are never run and
// settle as ctx.Err(), and each worker re-checks the context before
// starting a queued index. A panic inside fn settles as that index's
// error instead of escaping on a worker goroutine, where no caller's
// recover could catch it.
func (r *Runner) parallelForCtx(ctx context.Context, n int, fn func(i int) error) error {
	return errors.Join(r.parallelForEach(ctx, n, fn)...)
}

// parallelForEach is the per-index core of parallelForCtx: it returns
// one error slot per index (nil on success) instead of joining them, so
// callers that need per-run granularity — the cluster shard executor,
// the DSE evaluator — can tell exactly which runs failed. Cancellation
// and panic handling are as described on parallelForCtx; indices
// abandoned by cancellation settle as ctx.Err().
func (r *Runner) parallelForEach(ctx context.Context, n int, fn func(i int) error) []error {
	call := func(i int) (err error) {
		if err := ctx.Err(); err != nil {
			return err
		}
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("exp: parallel run %d: %v", i, p)
			}
		}()
		return fn(i)
	}
	errs := make([]error, n)
	workers := min(r.workers(), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			errs[i] = call(i)
		}
		return errs
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				errs[i] = call(i)
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
			for j := i; j < n; j++ {
				errs[j] = ctx.Err()
			}
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	return errs
}

// ResultsParallel evaluates the given runs across the runner's worker
// pool and returns their results in input order. Results are memoized
// exactly like Result, so a parallel sweep followed by serial reads (the
// figure generators' pattern) recomputes nothing. Execution is
// deterministic per run — each simulation is self-contained — so results
// are bit-identical to a serial evaluation regardless of scheduling. Runs
// whose design name is malformed report errors (joined, one per bad run)
// without aborting the rest of the sweep; their result slots are zero.
func (r *Runner) ResultsParallel(specs []RunSpec) ([]sim.Result, error) {
	return r.ResultsParallelProgress(context.Background(), specs, nil)
}

// ResultsParallelProgress is ResultsParallel with cancellation and
// streaming progress. When ctx is canceled, queued runs are abandoned
// promptly (their error slots settle as ctx.Err()) while runs already
// executing finish and land in the memo cache as usual. When progress is
// non-nil it is called once per settled run with the count of runs
// finished so far and the total — the hook long-lived servers use to
// report sweep progress to clients. Calls are serialized and done is
// strictly increasing, but the order in which indices settle is
// scheduling-dependent; on cancellation, abandoned runs never report.
func (r *Runner) ResultsParallelProgress(ctx context.Context, specs []RunSpec, progress func(done, total int)) ([]sim.Result, error) {
	out := make([]sim.Result, len(specs))
	var mu sync.Mutex
	finished := 0
	err := r.parallelForCtx(ctx, len(specs), func(i int) error {
		var err error
		out[i], err = r.result(specs[i].Workload, specs[i].Design, specs[i].Ratio16, i)
		if progress != nil {
			mu.Lock()
			finished++
			progress(finished, len(specs))
			mu.Unlock()
		}
		return err
	})
	return out, err
}

// ResultsParallelEach evaluates the given runs across the runner's
// worker pool and returns results and errors in input order, one error
// slot per run (nil on success) — no joining, so executors that relay
// per-run outcomes keep exact run-to-error attribution. Memoization,
// determinism and cancellation behave exactly as in
// ResultsParallelProgress;
// a run abandoned by cancellation settles its slot as ctx.Err() with a
// zero result.
func (r *Runner) ResultsParallelEach(ctx context.Context, specs []RunSpec) ([]sim.Result, []error) {
	out := make([]sim.Result, len(specs))
	errs := r.parallelForEach(ctx, len(specs), func(i int) error {
		var err error
		out[i], err = r.result(specs[i].Workload, specs[i].Design, specs[i].Ratio16, i)
		return err
	})
	return out, errs
}

// ResultsByName is ResultsParallelEach for name-keyed runs: each run
// resolves against this runner's configuration — the scale, ratio and
// instruction budget must validate, and the workload must be a built-in
// one — and evaluates in its own slot, so a malformed run fails only its
// slot. Executors that receive runs over the wire (the cluster shard
// executor, the design-space search's in-process evaluator) go through
// it.
func (r *Runner) ResultsByName(ctx context.Context, runs []Run) ([]sim.Result, []error) {
	out := make([]sim.Result, len(runs))
	errs := r.parallelForEach(ctx, len(runs), func(i int) error {
		run := runs[i]
		wl, ok := workload.ByName(run.Workload)
		if !ok {
			return fmt.Errorf("exp: unknown workload %q", run.Workload)
		}
		var err error
		out[i], err = r.result(wl, run.Design, run.Ratio16, i)
		return err
	})
	return out, errs
}

// SweepSpecs pre-enumerates the (workload × design × ratio) cross
// product of a sweep over this runner's workloads, in deterministic
// design-major order.
func (r *Runner) SweepSpecs(designs []string, ratios []int) []RunSpec {
	wls := r.Workloads()
	specs := make([]RunSpec, 0, len(designs)*len(ratios)*len(wls))
	for _, d := range designs {
		for _, ratio := range ratios {
			for _, wl := range wls {
				specs = append(specs, RunSpec{Workload: wl, Design: d, Ratio16: ratio})
			}
		}
	}
	return specs
}

// SweepSpecsByName builds the design-major, workload-minor cross
// product for explicit name lists — the run order every consumer of the
// shared wire encoding (cmd/experiments -sweepjson, the serve layer)
// must agree on for sweep documents to be byte-identical. Unknown
// workload names error; design names are validated later, when the runs
// resolve through the registry.
func SweepSpecsByName(designs, workloadNames []string, ratio16 int) ([]RunSpec, error) {
	specs := make([]RunSpec, 0, len(designs)*len(workloadNames))
	for _, d := range designs {
		for _, name := range workloadNames {
			wl, ok := workload.ByName(name)
			if !ok {
				return nil, fmt.Errorf("exp: unknown workload %q", name)
			}
			specs = append(specs, RunSpec{Workload: wl, Design: d, Ratio16: ratio16})
		}
	}
	return specs, nil
}

// Sweep evaluates every (workload, design, ratio) combination in
// parallel, warming the memo cache so subsequent Result calls are free.
func (r *Runner) Sweep(designs []string, ratios []int) error {
	_, err := r.ResultsParallel(r.SweepSpecs(designs, ratios))
	return err
}

// mustSweep pre-warms a figure generator's run set. The generators only
// sweep statically well-formed design names, so an error here is a bug.
func (r *Runner) mustSweep(designs []string, ratios []int) {
	if err := r.Sweep(designs, ratios); err != nil {
		panic(err)
	}
}

// withBaseline prepends the no-NM baseline to a design list: every
// speedup-reporting figure needs it as the normalization point.
func withBaseline(designs []string) []string {
	return append([]string{"Baseline"}, designs...)
}

// MaxMLP bounds the memory-level parallelism of trace replay: 8× the
// largest sim.MLPFor. Every core allocates and scans one slot per unit
// of MLP on each miss, so an unbounded request costs unbounded memory
// and time.
const MaxMLP = 64

// RunTrace replays a captured trace on a design at an NM ratio,
// streaming the records: the trace (any format internal/trace reads,
// auto-detected) is never materialized, so arbitrarily large captures
// replay in memory bounded by the runner's TraceWindow. mlp bounds
// per-core overlapped misses and must lie in [1, MaxMLP]; the window may
// not exceed trace.MaxWindow, and the runner's configuration with
// ratio16 must pass config.ValidateRun. A trace with
// no records (empty or whitespace/comments only) is an error, not a
// zero-cycle result, as is a decode error or a core interleaving more
// skewed than the lookahead window. Trace runs are not memoized; with Telemetry set
// they are sampled like ResultErr's runs.
func (r *Runner) RunTrace(name string, rd io.Reader, designName string, ratio16, mlp int) (sim.Result, error) {
	if err := config.ValidateRun(r.Scale, ratio16, r.InstrPerCore); err != nil {
		return sim.Result{}, fmt.Errorf("exp: trace %s: %w", name, err)
	}
	spec, err := design.Parse(designName)
	if err != nil {
		return sim.Result{}, err
	}
	if mlp < 1 || mlp > MaxMLP {
		return sim.Result{}, fmt.Errorf("exp: trace %s: mlp must be in [1, %d], got %d", name, MaxMLP, mlp)
	}
	sr, err := trace.NewStreamReader(rd, config.Cores, r.TraceWindow)
	if err != nil {
		return sim.Result{}, err
	}
	// Stop decoding ahead before returning on every path: rd may be a
	// request body that must not be read once the handler returns.
	defer sr.Close()
	// Fail fast on an empty or immediately malformed trace, before any
	// simulation state is built.
	if err := sr.Prime(); err != nil {
		return sim.Result{}, err
	}
	if sr.Records() == 0 {
		return sim.Result{}, fmt.Errorf("exp: trace %s: no records", name)
	}
	srcs := make([]sim.Source, config.Cores)
	for i := range srcs {
		srcs[i] = sr.Source(i)
	}
	return r.execute(name, designName, spec, ratio16, 0, func(m *machine) (sim.Result, error) {
		res := sim.RunSourcesOn(m.host, name, srcs, mlp, m.ms, m.nm, m.fm, m.sys, m.smp)
		// Per-core sources signal stream problems only as an early end of
		// records; surface the real cause now that replay has drained.
		return res, sr.Err()
	})
}

// Speedup returns design cycles relative to the no-NM baseline, or 0 if
// either run completed no cycles (the ratio would be meaningless).
func (r *Runner) Speedup(wl workload.Spec, designName string, ratio16 int) float64 {
	base := r.Result(wl, "Baseline", 1)
	res := r.Result(wl, designName, ratio16)
	if res.Cycles == 0 || base.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(res.Cycles)
}

// AllSpeedups collects per-workload speedups across all classes.
func (r *Runner) AllSpeedups(designName string, ratio16 int) []float64 {
	var out []float64
	for _, wl := range r.Workloads() {
		out = append(out, r.Speedup(wl, designName, ratio16))
	}
	return out
}
