package exp

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"hybridmem/internal/cachesim"
	"hybridmem/internal/config"
	"hybridmem/internal/design"
	"hybridmem/internal/sim"
	"hybridmem/internal/trace"
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

// TestCandidateMajorBatchBuildsEachDesignOnce: with one worker, the
// workloads of one design run back to back on one machine, reset
// between runs instead of rebuilt — with results equal to a batch whose
// alternating designs build every run fresh.
func TestCandidateMajorBatchBuildsEachDesignOnce(t *testing.T) {
	designs := []string{"HYBRID2", "MPOD"}
	reuse, fresh := tiny(), tiny()
	reuse.Parallelism, fresh.Parallelism = 1, 1
	got := runBatch(t, reuse, batch(reuse, designs, false))
	if n := reuse.builds.Load(); n != int64(len(designs)) {
		t.Errorf("candidate-major batch of %d runs built %d machines, want %d", len(got), n, len(designs))
	}
	alt := batch(fresh, designs, true)
	want := runBatch(t, fresh, alt)
	if n := fresh.builds.Load(); n != int64(len(alt)) {
		t.Errorf("alternating batch of %d runs built %d machines, want one per run", len(alt), n)
	}
	byRun := map[RunSpec]sim.Result{}
	for i, s := range alt {
		byRun[s] = want[i]
	}
	for i, s := range batch(reuse, designs, false) {
		if got[i] != byRun[s] {
			t.Errorf("%s/%s: reused machine's result differs from a fresh build's", s.Design, s.Workload.Name)
		}
	}
}

// TestLLCStaysWithTheWorker: a machine built for a new design inherits
// the LLC of the idle machine it replaces when both are for one system,
// so a serial runner that changes design on every run, synthetic runs
// and trace replays alike, builds one LLC per system. A ratio change and
// a fidelity change each make a new system. Every result equals a fresh
// runner's.
func TestLLCStaysWithTheWorker(t *testing.T) {
	r := tiny()
	r.Parallelism = 1
	llcs := map[config.System]map[*cachesim.Cache]bool{}
	noteLLC := func() {
		m := r.idle[len(r.idle)-1]
		if llcs[m.sys] == nil {
			llcs[m.sys] = map[*cachesim.Cache]bool{}
		}
		llcs[m.sys][m.host.LLC] = true
	}
	for _, step := range []struct {
		ratio16 int
		instr   uint64
	}{{1, 20_000}, {2, 20_000}, {2, 10_000}} {
		r.InstrPerCore = step.instr
		fresh := func() *Runner {
			f := tiny()
			f.InstrPerCore = step.instr
			return f
		}
		for _, wl := range r.Workloads() {
			for _, d := range []string{"HYBRID2", "DFC", "MPOD", "TAGLESS"} {
				got, err := r.ResultErr(wl, d, step.ratio16)
				if err != nil {
					t.Fatal(err)
				}
				noteLLC()
				want, err := fresh().ResultErr(wl, d, step.ratio16)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("%s/%s at ratio %d, %d instr: result on a handed-down LLC differs from a fresh runner's",
						d, wl.Name, step.ratio16, step.instr)
				}
			}
			sys := r.system(step.ratio16)
			replay := func(rr *Runner) sim.Result {
				res, err := rr.RunTrace(wl.Name, writeSyntheticTrace(t, wl, sys, trace.FormatBinary, false), "DFC-256", step.ratio16, sim.MLPFor(wl))
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			got := replay(r)
			noteLLC()
			if want := replay(fresh()); got != want {
				t.Errorf("%s trace replay at ratio %d, %d instr: result on a handed-down LLC differs from a fresh runner's",
					wl.Name, step.ratio16, step.instr)
			}
		}
	}
	if len(llcs) != 3 {
		t.Fatalf("runs covered %d systems, want 3", len(llcs))
	}
	for sys, set := range llcs {
		if len(set) != 1 {
			t.Errorf("system with %d NM bytes and %d instr/core: one worker built %d LLCs, want 1",
				sys.NMBytes, sys.InstrPerCore, len(set))
		}
	}
}

// TestCoreStateStaysWithTheWorker: the cores' slots ride with the host
// a serial runner hands from machine to machine, so runs that change
// design, workload and memory-level parallelism on one system — trace
// replays at 8, 1, MaxMLP and 3 overlapped misses between synthetic runs
// — all run on one host, and every result equals a fresh runner's.
func TestCoreStateStaysWithTheWorker(t *testing.T) {
	r := tiny()
	r.Parallelism = 1
	sys := r.system(1)
	hosts := map[*sim.Host]bool{}
	check := func(what string, got, want sim.Result) {
		t.Helper()
		hosts[r.idle[len(r.idle)-1].host] = true
		if got != want {
			t.Errorf("%s: result on a handed-down host differs from a fresh runner's", what)
		}
	}
	wls := r.Workloads()
	for i, mlp := range []int{8, 1, MaxMLP, 3} {
		wl := wls[i%len(wls)]
		d := []string{"HYBRID2", "MPOD", "DFC", "LGM"}[i]
		got, err := r.ResultErr(wl, d, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := tiny().ResultErr(wl, d, 1)
		if err != nil {
			t.Fatal(err)
		}
		check(d+"/"+wl.Name, got, want)
		replay := func(rr *Runner) sim.Result {
			res, err := rr.RunTrace(wl.Name, writeSyntheticTrace(t, wl, sys, trace.FormatBinary, false), d, 1, mlp)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		check(fmt.Sprintf("%s/%s replay at mlp %d", d, wl.Name, mlp), replay(r), replay(tiny()))
	}
	if len(hosts) != 1 {
		t.Errorf("one worker on one system ran on %d hosts, want 1", len(hosts))
	}
}

// TestFailedRunDropsMachine: a run that errors or panics never hands its
// machine to the next run.
func TestFailedRunDropsMachine(t *testing.T) {
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
		if len(r.idle) != 0 {
			t.Fatalf("failed run left %d idle machine(s)", len(r.idle))
		}
	}
	if _, err := r.ResultErr(r.Workloads()[0], "HYBRID2", 1); err != nil {
		t.Fatal(err)
	}
	if len(r.idle) != 1 {
		t.Fatalf("successful run left %d idle machine(s), want 1", len(r.idle))
	}
}

// TestEveryDesignReusesItsMachine: SILC-FM, Banshee and Footprint, once
// rebuilt for every run, now run a workload sweep on one machine too.
func TestEveryDesignReusesItsMachine(t *testing.T) {
	for _, d := range []string{"SILC-FM", "BANSHEE", "FOOTPRINT"} {
		r := tiny()
		r.Parallelism = 1
		for _, wl := range r.Workloads() {
			if _, err := r.ResultErr(wl, d, 1); err != nil {
				t.Fatal(err)
			}
		}
		if n := r.builds.Load(); n != 1 {
			t.Errorf("%s: %d runs built %d machines, want 1", d, len(r.Workloads()), n)
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
// own memo, singleflight group and idle machines.
func TestCloneCopiesKnobsSharesNoState(t *testing.T) {
	r := tiny()
	if _, err := r.ResultErr(r.Workloads()[0], "Baseline", 1); err != nil {
		t.Fatal(err)
	}
	if len(r.idle) == 0 || r.memo == nil {
		t.Fatal("original runner holds no memo or idle machine to check against")
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

// TestMissTakesOverIdleSlot: a run that finds no idle machine for its
// design drops the oldest idle one while it builds its own, so idle plus
// in-use machines never outnumber the workers.
func TestMissTakesOverIdleSlot(t *testing.T) {
	r := tiny()
	r.Parallelism = 1
	wl := r.Workloads()[0]
	if _, err := r.ResultErr(wl, "HYBRID2", 1); err != nil {
		t.Fatal(err)
	}
	spec, err := design.Parse("MPOD")
	if err != nil {
		t.Fatal(err)
	}
	idle := -1
	if _, err := r.execute(wl.Name, "MPOD", spec, 1, 0, func(m *machine) (sim.Result, error) {
		idle = len(r.idle)
		return workloadRun(wl)(m)
	}); err != nil {
		t.Fatal(err)
	}
	if idle != 0 {
		t.Errorf("%d idle machine(s) kept while a run built a new one with one worker", idle)
	}
	if len(r.idle) != 1 || r.idle[0].spec.Info.Name != "MPOD" {
		t.Errorf("idle machines after the run: %d, want the MPOD run's", len(r.idle))
	}
}
