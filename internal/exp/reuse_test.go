package exp

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"hybridmem/internal/design"
	"hybridmem/internal/sim"
	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
)

// batch returns the runs of designs over r's workloads, candidate-major
// (each design's workloads back to back, as the DSE evaluator orders
// them) or, with alternate set, switching design on every run.
func batch(r *Runner, designs []string, alternate bool) []RunSpec {
	var specs []RunSpec
	if alternate {
		for _, wl := range r.Workloads() {
			for _, d := range designs {
				specs = append(specs, RunSpec{Workload: wl, Design: d, Ratio16: 1})
			}
		}
		return specs
	}
	return r.SweepSpecs(designs, []int{1})
}

func runBatch(t *testing.T, r *Runner, specs []RunSpec) []sim.Result {
	t.Helper()
	out, errs := r.ResultsParallelEach(context.Background(), specs)
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	return out
}

// freshly returns run's result on a runner with r's knobs whose machine
// is built for that run alone: the run sees an empty pool, and the pool
// is as it was afterwards.
func freshly(t *testing.T, r *Runner, run func(*Runner) (sim.Result, error)) sim.Result {
	t.Helper()
	var (
		res sim.Result
		err error
	)
	onEmptyPool(func() { res, err = run(r.clone()) })
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// fillPool empties the pool, fills it to r's bound with machines of r's
// scale that no test runs otherwise, IDEAL-128, IDEAL-256 and ALLOY at each
// NM ratio, and returns their hosts. Machines differ by design or
// geometry: a seed does not tell one from another.
func fillPool(t *testing.T, r *Runner) map[*sim.Host]bool {
	t.Helper()
	resetPool()
	var fill []RunSpec
	for _, d := range []string{"IDEAL-128", "IDEAL-256", "ALLOY"} {
		for _, ratio16 := range []int{1, 2, 4} {
			fill = append(fill, RunSpec{Workload: r.Workloads()[0], Design: d, Ratio16: ratio16})
		}
	}
	if len(fill) < r.poolBound() {
		t.Fatalf("%d filler machines for a pool of %d", len(fill), r.poolBound())
	}
	for _, s := range fill[:r.poolBound()] {
		f := &Runner{Scale: r.Scale, InstrPerCore: 1000, Seed: 1, Parallelism: r.Parallelism}
		if _, err := f.ResultErr(s.Workload, s.Design, s.Ratio16); err != nil {
			t.Fatal(err)
		}
	}
	hosts := idleHosts()
	if len(hosts) != r.poolBound() {
		t.Fatalf("filled pool holds %d hosts, want %d", len(hosts), r.poolBound())
	}
	return hosts
}

// newest returns the machine the last finished run returned to the pool.
func newest(t *testing.T) *machine {
	t.Helper()
	idle := idleMachines()
	if len(idle) == 0 {
		t.Fatal("the pool holds no machine")
	}
	return idle[len(idle)-1]
}

// TestCandidateMajorBatchBuildsEachDesignOnce: with one worker, the
// workloads of one design run on one machine, reset between runs
// instead of rebuilt, and so do those of a batch that alternates
// designs, whose machines the pool holds side by side. Either batch
// builds each design once, and every result equals a fresh build's.
func TestCandidateMajorBatchBuildsEachDesignOnce(t *testing.T) {
	designs := []string{"HYBRID2", "MPOD"}
	want := map[RunSpec]sim.Result{}
	for _, alternate := range []bool{false, true} {
		resetPool()
		r := tiny()
		r.Parallelism = 1
		specs := batch(r, designs, alternate)
		before := builds.Load()
		got := runBatch(t, r, specs)
		if n := builds.Load() - before; n != int64(len(designs)) {
			t.Errorf("batch of %d runs (alternating %v) built %d machines, want %d", len(specs), alternate, n, len(designs))
		}
		for i, s := range specs {
			if _, ok := want[s]; !ok {
				want[s] = freshly(t, r, func(f *Runner) (sim.Result, error) { return f.ResultErr(s.Workload, s.Design, s.Ratio16) })
			}
			if got[i] != want[s] {
				t.Errorf("%s/%s (alternating %v): reused machine's result differs from a fresh build's", s.Design, s.Workload.Name, alternate)
			}
		}
	}
}

// TestLLCStaysWithTheWorker: once the pool is full, a run that builds a
// machine takes over the oldest idle machine's slot and keeps its host
// when both LLCs have one size, whatever else their systems differ in.
// So a serial runner that changes design on every run and NM ratio
// between steps, synthetic runs and trace replays alike, runs on the
// hosts the pool already held, and a step that changes only the
// instruction budget and the seed builds nothing: it resets the
// previous step's machines to its seed. A run at another scale, whose
// LLC is smaller, builds its own host. Every result equals a fresh
// build's.
func TestLLCStaysWithTheWorker(t *testing.T) {
	r := tiny()
	r.Parallelism = 1
	hosts := fillPool(t, r)
	for _, step := range []struct {
		ratio16     int
		instr, seed uint64
		reuse       bool
	}{{1, 20_000, 1, false}, {2, 20_000, 1, false}, {2, 10_000, 2, true}} {
		r.InstrPerCore, r.Seed = step.instr, step.seed
		var built int64
		check := func(what string, run func(*Runner) (sim.Result, error)) {
			t.Helper()
			what = fmt.Sprintf("%s at ratio %d, %d instr, seed %d", what, step.ratio16, step.instr, step.seed)
			before := builds.Load()
			got, err := run(r)
			if err != nil {
				t.Fatal(err)
			}
			built += builds.Load() - before
			if !hosts[newest(t).host] {
				t.Errorf("%s: built a host while the pool held one with an LLC of its size", what)
			}
			if got != freshly(t, r, run) {
				t.Errorf("%s: result on a handed-down LLC differs from a fresh build's", what)
			}
		}
		for _, wl := range r.Workloads() {
			for _, d := range []string{"HYBRID2", "DFC", "MPOD", "TAGLESS"} {
				check(d+"/"+wl.Name, func(rr *Runner) (sim.Result, error) { return rr.ResultErr(wl, d, step.ratio16) })
			}
			sys := r.system(step.ratio16)
			check(wl.Name+" trace replay", func(rr *Runner) (sim.Result, error) {
				return rr.RunTrace(wl.Name, writeSyntheticTrace(t, wl, sys, trace.FormatBinary, false), "DFC-256", step.ratio16, sim.MLPFor(wl))
			})
		}
		if step.reuse && built != 0 {
			t.Errorf("a change of seed and instruction budget alone built %d machines, want none", built)
		}
	}
	if n := len(idleMachines()); n != r.poolBound() {
		t.Errorf("pool holds %d machines, want its bound %d", n, r.poolBound())
	}
	r.Scale *= 2
	run := func(rr *Runner) (sim.Result, error) { return rr.ResultErr(rr.Workloads()[0], "DFC", 1) }
	got, err := run(r)
	if err != nil {
		t.Fatal(err)
	}
	if hosts[newest(t).host] {
		t.Error("a run at another scale took over a host whose LLC has another size")
	}
	if got != freshly(t, r, run) {
		t.Errorf("DFC at scale %d: result differs from a fresh build's", r.Scale)
	}
}

// TestCoreStateStaysWithTheWorker: the cores' slots ride with the host
// from machine to machine, so runs that change design, workload and
// memory-level parallelism on one system — trace replays at 8, 1,
// MaxMLP and 3 overlapped misses between synthetic runs — run on hosts
// earlier runs left in the pool, and every result equals a fresh
// build's.
func TestCoreStateStaysWithTheWorker(t *testing.T) {
	r := tiny()
	r.Parallelism = 1
	hosts := fillPool(t, r)
	sys := r.system(1)
	check := func(what string, got, want sim.Result) {
		t.Helper()
		if !hosts[newest(t).host] {
			t.Errorf("%s: ran on a new host", what)
		}
		if got != want {
			t.Errorf("%s: result on a handed-down host differs from a fresh build's", what)
		}
	}
	wls := r.Workloads()
	for i, mlp := range []int{8, 1, MaxMLP, 3} {
		wl := wls[i%len(wls)]
		d := []string{"HYBRID2", "MPOD", "DFC", "LGM"}[i]
		run := func(rr *Runner) (sim.Result, error) { return rr.ResultErr(wl, d, 1) }
		got, err := run(r)
		if err != nil {
			t.Fatal(err)
		}
		check(d+"/"+wl.Name, got, freshly(t, r, run))
		replay := func(rr *Runner) (sim.Result, error) {
			return rr.RunTrace(wl.Name, writeSyntheticTrace(t, wl, sys, trace.FormatBinary, false), d, 1, mlp)
		}
		if got, err = replay(r); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("%s/%s replay at mlp %d", d, wl.Name, mlp), got, freshly(t, r, replay))
	}
}

// TestFailedRunDropsMachine: a run that errors or panics never returns
// its machine to the pool.
func TestFailedRunDropsMachine(t *testing.T) {
	resetPool()
	r := tiny()
	spec, err := design.Parse("HYBRID2")
	if err != nil {
		t.Fatal(err)
	}
	for _, fail := range []func(*machine) (sim.Result, error){
		func(*machine) (sim.Result, error) { return sim.Result{}, errors.New("replay failed") },
		func(*machine) (sim.Result, error) { panic("boom") },
	} {
		if _, err := r.execute("wl", "HYBRID2", spec, 1, 0, fail); err == nil {
			t.Fatal("failed run reported no error")
		}
		if n := len(idleMachines()); n != 0 {
			t.Fatalf("failed run left %d idle machine(s)", n)
		}
	}
	if _, err := r.ResultErr(r.Workloads()[0], "HYBRID2", 1); err != nil {
		t.Fatal(err)
	}
	if n := len(idleMachines()); n != 1 {
		t.Fatalf("successful run left %d idle machine(s), want 1", n)
	}
}

// TestFailedBuildKeepsItsHost: a design point whose build fails takes
// no host, so on a full pool it drops no idle machine. A batch that
// alternates a feasible candidate with an infeasible one builds the
// feasible machine once, on the host of the oldest idle machine, and
// leaves the pool with the hosts it held.
func TestFailedBuildKeepsItsHost(t *testing.T) {
	const feasible, infeasible = "DFC", "H2DSE-1024-4-256" // the cache slice is all of NM at ratio 1
	r := tiny()
	r.Parallelism = 1
	hosts := fillPool(t, r)
	kept := idleMachines()[1:]
	before := builds.Load()
	_, errs := r.ResultsParallelEach(context.Background(), batch(r, []string{feasible, infeasible}, true))
	for i, err := range errs {
		if (err != nil) != (i%2 == 1) {
			t.Fatalf("run %d: error %v, want one for each %s run only", i, err, infeasible)
		}
	}
	if n := builds.Load() - before; n != 1 {
		t.Errorf("batch built %d machines, want 1", n)
	}
	idle := idleMachines()
	if len(idle) != r.poolBound() || !reflect.DeepEqual(idleHosts(), hosts) {
		t.Errorf("pool holds %d machines over %d of its hosts, want %d machines over the %d it held",
			len(idle), len(idleHosts()), r.poolBound(), len(hosts))
	}
	if !slices.Equal(idle[:len(kept)], kept) || idle[len(idle)-1].spec.Name != feasible {
		t.Error("batch dropped another machine than the oldest, or left no machine of its feasible design")
	}
}

// TestEveryDesignReusesItsMachine: SILC-FM, Banshee and Footprint, once
// rebuilt for every run, run a workload sweep on one machine too.
func TestEveryDesignReusesItsMachine(t *testing.T) {
	for _, d := range []string{"SILC-FM", "BANSHEE", "FOOTPRINT"} {
		resetPool()
		r := tiny()
		r.Parallelism = 1
		before := builds.Load()
		for _, wl := range r.Workloads() {
			if _, err := r.ResultErr(wl, d, 1); err != nil {
				t.Fatal(err)
			}
		}
		if n := builds.Load() - before; n != 1 {
			t.Errorf("%s: %d runs built %d machines, want 1", d, len(r.Workloads()), n)
		}
	}
}

// TestRunnersWithDifferentSeedsShareThePool: two runners at different
// seeds that interleave designs on one pool share one machine per
// design, which each run resets to its own seed, and get the results of
// fresh builds.
func TestRunnersWithDifferentSeedsShareThePool(t *testing.T) {
	resetPool()
	designs := []string{"HYBRID2", "MPOD", "LGM"}
	var runners []*Runner
	for _, seed := range []uint64{1, 2} {
		r := tiny()
		r.InstrPerCore, r.Seed, r.Parallelism = 20_000, seed, 1
		runners = append(runners, r)
	}
	type run struct {
		r   *Runner
		wl  workload.Spec
		d   string
		res sim.Result
	}
	var runs []run
	before := builds.Load()
	for _, wl := range runners[0].Workloads() {
		for _, d := range designs {
			for _, r := range runners {
				res, err := r.ResultErr(wl, d, 1)
				if err != nil {
					t.Fatal(err)
				}
				runs = append(runs, run{r, wl, d, res})
			}
		}
	}
	if n, want := builds.Load()-before, int64(len(designs)); n != want {
		t.Errorf("two runners built %d machines, want %d (one per design)", n, want)
	}
	for _, x := range runs {
		if x.res != freshly(t, x.r, func(f *Runner) (sim.Result, error) { return f.ResultErr(x.wl, x.d, 1) }) {
			t.Errorf("%s/%s at seed %d: result on a pooled machine differs from a fresh build's", x.d, x.wl.Name, x.r.Seed)
		}
	}
}

// TestInvalidScaleIsARunError: config.Scaled panics on a scale below 1,
// and a run that reaches it settles the panic as its error.
func TestInvalidScaleIsARunError(t *testing.T) {
	r := tiny()
	r.Scale = 0
	if _, err := r.ResultErr(r.Workloads()[0], "HYBRID2", 1); err == nil {
		t.Fatal("a run at scale 0 reported no error")
	}
}

// TestCloneCopiesKnobsSharesNoState: a clone copies every exported
// field and starts with none of the original's unexported state — its
// own memo and singleflight group. Machines are no runner's state: both
// take them from the pool.
func TestCloneCopiesKnobsSharesNoState(t *testing.T) {
	r := tiny()
	if _, err := r.ResultErr(r.Workloads()[0], "Baseline", 1); err != nil {
		t.Fatal(err)
	}
	if r.memo == nil {
		t.Fatal("original runner holds no memo to check against")
	}
	v := reflect.ValueOf(r).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if !v.Type().Field(i).IsExported() {
			continue
		}
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(int64(i + 3))
		case reflect.Uint64:
			f.SetUint(uint64(i + 3))
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
		case reflect.Slice:
			if f.Len() == 0 {
				f.Set(reflect.MakeSlice(f.Type(), 1, 1))
			}
		default:
			t.Fatalf("field %s: kind %s not covered by this test", v.Type().Field(i).Name, f.Kind())
		}
	}
	c := reflect.ValueOf(r.clone()).Elem()
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		orig, cl := v.Field(i), c.Field(i)
		if !v.Type().Field(i).IsExported() {
			if !cl.IsZero() {
				t.Errorf("clone shares unexported state %s", name)
			}
			continue
		}
		same := false
		switch orig.Kind() {
		case reflect.Pointer, reflect.Slice:
			same = orig.Pointer() == cl.Pointer() && (orig.Kind() == reflect.Pointer || orig.Len() == cl.Len())
		default:
			same = orig.Interface() == cl.Interface()
		}
		if !same {
			t.Errorf("clone drops exported field %s", name)
		}
	}
}

// TestMissTakesOverIdleSlot: on a full pool, a run that finds no idle
// machine for its design drops the oldest idle one and keeps its host
// while it simulates, so once it returns its machine the pool holds its
// bound again.
func TestMissTakesOverIdleSlot(t *testing.T) {
	r := tiny()
	r.Parallelism = 1
	fillPool(t, r)
	oldest := idleMachines()[0]
	wl := r.Workloads()[0]
	spec, err := design.Parse("MPOD")
	if err != nil {
		t.Fatal(err)
	}
	idle := -1
	if _, err := r.execute(wl.Name, "MPOD", spec, 1, 0, func(m *machine) (sim.Result, error) {
		idle = len(idleMachines())
		if m.host != oldest.host || slices.Contains(idleMachines(), oldest) {
			t.Error("the run built a host instead of taking over the oldest idle machine's")
		}
		return workloadRun(wl)(m)
	}); err != nil {
		t.Fatal(err)
	}
	if idle != r.poolBound()-1 {
		t.Errorf("%d idle machine(s) kept while a run built a new one, want %d", idle, r.poolBound()-1)
	}
	if n := len(idleMachines()); n != r.poolBound() || newest(t).spec.Name != "MPOD" {
		t.Errorf("idle machines after the run: %d, want %d with the MPOD run's newest", n, r.poolBound())
	}
}

// TestPoolBoundCoversTheEvaluation: the pool keeps a machine for every
// design of the evaluation plus one, or one per worker when there are
// more workers.
func TestPoolBoundCoversTheEvaluation(t *testing.T) {
	r := tiny()
	r.Parallelism = 1
	if got, want := r.poolBound(), len(withBaseline(MainDesigns))+1; got != want {
		t.Errorf("serial runner's pool bound %d, want %d", got, want)
	}
	r.Parallelism = 3 * poolFloor
	if got := r.poolBound(); got != r.Parallelism {
		t.Errorf("pool bound of %d workers is %d", r.Parallelism, got)
	}
}
