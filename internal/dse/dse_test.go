package dse

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// tinyOpts is a fast search configuration: one family, one small-footprint
// workload, short streams, a tight enumeration cap. H2DSE at MaxPerParam 3
// enumerates 18 feasible specs, so budget 6 exercises the budgeted path
// (explore then climb) and budget 0 the exhaustive one.
func tinyOpts() Options {
	return Options{
		Families:     []string{"H2DSE"},
		Workloads:    []string{"mcf"},
		Budget:       6,
		BatchSize:    2,
		Seed:         7,
		InstrPerCore: 20_000,
		MaxPerParam:  3,
		Parallelism:  2,
	}
}

// resultJSON renders a Result the way cmd/dse -json does; the resume
// tests compare these bytes.
func resultJSON(t *testing.T, res Result) []byte {
	t.Helper()
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSearchExhaustive covers the whole tiny space and sanity-checks the
// objective vectors and the frontier invariants.
func TestSearchExhaustive(t *testing.T) {
	opts := tinyOpts()
	opts.Budget = 0
	res, err := Search(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evaluated) != res.SpaceSize {
		t.Fatalf("exhaustive search evaluated %d of %d specs", len(res.Evaluated), res.SpaceSize)
	}
	if len(res.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	feasible := 0
	for _, p := range res.Evaluated {
		if p.Infeasible {
			continue
		}
		feasible++
		if p.Speedup <= 0 || p.CapacityMB <= 0 {
			t.Errorf("%s: non-positive objectives %+v", p.Design, p.Objectives)
		}
	}
	if feasible == 0 {
		t.Fatal("every candidate infeasible")
	}
	// No frontier point may dominate another.
	for i, a := range res.Frontier {
		if a.Infeasible {
			t.Errorf("infeasible point %s on the frontier", a.Design)
		}
		for j, b := range res.Frontier {
			if i != j && a.Objectives.dominates(b.Objectives) {
				t.Errorf("frontier point %s dominates frontier point %s", a.Design, b.Design)
			}
		}
	}
	// Every dominated evaluated point must be off the frontier.
	onFrontier := map[string]bool{}
	for _, p := range res.Frontier {
		onFrontier[p.Design] = true
	}
	for _, p := range res.Evaluated {
		if p.Infeasible || onFrontier[p.Design] {
			continue
		}
		dominated := false
		for _, f := range res.Frontier {
			if f.Objectives.dominates(p.Objectives) {
				dominated = true
				break
			}
		}
		if !dominated {
			t.Errorf("%s is Pareto-optimal but missing from the frontier", p.Design)
		}
	}
}

// TestSearchDeterministic pins that two identical budgeted searches —
// including the random exploration phase — produce byte-identical output.
func TestSearchDeterministic(t *testing.T) {
	a, err := Search(context.Background(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Search(context.Background(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if ja, jb := resultJSON(t, a), resultJSON(t, b); string(ja) != string(jb) {
		t.Fatalf("same seed, different results:\n%s\n----\n%s", ja, jb)
	}
	c := tinyOpts()
	c.Seed = 8
	other, err := Search(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if string(resultJSON(t, a)) == string(resultJSON(t, other)) {
		t.Log("note: seeds 7 and 8 happened to evaluate the same candidates")
	}
}

// TestResumeMatchesUninterrupted is the acceptance property: a search
// interrupted at any round boundary (here: paused via MaxRounds) and
// resumed from its checkpoint yields byte-identical JSON — frontier,
// evaluation trail, round count — to the same search run uninterrupted.
func TestResumeMatchesUninterrupted(t *testing.T) {
	dir := t.TempDir()

	want, err := Search(context.Background(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	totalRounds := want.Rounds

	// Interrupt at every round boundary, then resume to completion.
	for k := 1; k < totalRounds; k++ {
		ckPath := filepath.Join(dir, "split.json")
		first := tinyOpts()
		first.MaxRounds = k
		first.Checkpoint = ckPath
		partial, err := Search(context.Background(), first)
		if err != nil {
			t.Fatalf("pause at round %d: %v", k, err)
		}
		if partial.Complete {
			t.Fatalf("pause at round %d: search reports Complete", k)
		}
		if partial.Rounds != k {
			t.Fatalf("pause at round %d: %d rounds ran", k, partial.Rounds)
		}
		second := tinyOpts()
		second.Checkpoint = ckPath
		second.Resume = true
		got, err := Search(context.Background(), second)
		if err != nil {
			t.Fatalf("resume from round %d: %v", k, err)
		}
		if !got.Resumed || !got.Complete {
			t.Fatalf("resume from round %d: Resumed=%v Complete=%v", k, got.Resumed, got.Complete)
		}
		if jw, jg := resultJSON(t, want), resultJSON(t, got); string(jw) != string(jg) {
			t.Fatalf("interrupt at round %d diverges from uninterrupted run:\nwant:\n%s\ngot:\n%s", k, jw, jg)
		}
		os.Remove(ckPath)
	}
}

// TestCancelThenResumeMatchesUninterrupted interrupts via context
// cancellation mid-search — the cmd/dse SIGINT path — and asserts the
// flushed checkpoint resumes to the identical result.
func TestCancelThenResumeMatchesUninterrupted(t *testing.T) {
	dir := t.TempDir()
	want, err := Search(context.Background(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}

	ckPath := filepath.Join(dir, "cancel.json")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first := tinyOpts()
	first.Checkpoint = ckPath
	first.Progress = func(e Event) {
		if e.Round == 1 {
			cancel() // interrupt during round 2
		}
	}
	partial, err := Search(ctx, first)
	if err == nil {
		t.Fatal("canceled search returned no error")
	}
	if len(partial.Evaluated) != first.BatchSize {
		t.Fatalf("partial search evaluated %d candidates, want one round of %d", len(partial.Evaluated), first.BatchSize)
	}

	second := tinyOpts()
	second.Checkpoint = ckPath
	second.Resume = true
	got, err := Search(context.Background(), second)
	if err != nil {
		t.Fatal(err)
	}
	if jw, jg := resultJSON(t, want), resultJSON(t, got); string(jw) != string(jg) {
		t.Fatalf("cancel-resume diverges from uninterrupted run:\nwant:\n%s\ngot:\n%s", jw, jg)
	}
}

// TestResumeRefusesForeignCheckpoint pins the fingerprint guard: a
// checkpoint written under different options must not silently resume.
func TestResumeRefusesForeignCheckpoint(t *testing.T) {
	ckPath := filepath.Join(t.TempDir(), "ck.json")
	first := tinyOpts()
	first.MaxRounds = 1
	first.Checkpoint = ckPath
	if _, err := Search(context.Background(), first); err != nil {
		t.Fatal(err)
	}
	second := tinyOpts()
	second.Workloads = []string{"namd"}
	second.Checkpoint = ckPath
	second.Resume = true
	if _, err := Search(context.Background(), second); err == nil {
		t.Fatal("resume accepted a checkpoint from different workloads")
	}
	second = tinyOpts()
	second.Budget = 4 // the budget sets the phase boundary: part of the fingerprint
	second.Checkpoint = ckPath
	second.Resume = true
	if _, err := Search(context.Background(), second); err == nil {
		t.Fatal("resume accepted a checkpoint from a different budget")
	}
}

// TestResumeAcceptsNormalizedDefaults pins that defaulted and explicit
// option spellings fingerprint identically: a checkpoint written with
// MaxPerParam 0 (the default, resolved to 12) must resume under an
// explicit MaxPerParam 12 — they are the same search.
func TestResumeAcceptsNormalizedDefaults(t *testing.T) {
	ckPath := filepath.Join(t.TempDir(), "ck.json")
	first := tinyOpts()
	first.MaxPerParam = 0 // default: resolves to 12; widens the tiny space
	first.MaxRounds = 1
	first.Checkpoint = ckPath
	if _, err := Search(context.Background(), first); err != nil {
		t.Fatal(err)
	}
	second := tinyOpts()
	second.MaxPerParam = 12
	second.Checkpoint = ckPath
	second.Resume = true
	if _, err := Search(context.Background(), second); err != nil {
		t.Fatalf("explicit MaxPerParam 12 refused a default-spelled checkpoint: %v", err)
	}
}

// TestSearchOptionValidation covers the error paths of option handling.
func TestSearchOptionValidation(t *testing.T) {
	bad := tinyOpts()
	bad.Families = []string{"NO-SUCH-FAMILY"}
	if _, err := Search(context.Background(), bad); err == nil {
		t.Error("unknown family accepted")
	}
	bad = tinyOpts()
	bad.Workloads = []string{"no-such-workload"}
	if _, err := Search(context.Background(), bad); err == nil {
		t.Error("unknown workload accepted")
	}
	bad = tinyOpts()
	bad.Resume = true
	if _, err := Search(context.Background(), bad); err == nil {
		t.Error("Resume without Checkpoint accepted")
	}
	bad = tinyOpts()
	bad.Resume = true
	bad.Checkpoint = filepath.Join(t.TempDir(), "missing.json")
	if _, err := Search(context.Background(), bad); err == nil {
		t.Error("Resume from a missing checkpoint accepted")
	}
	// Zero means the default; a negative scale or ratio is an error, not
	// the default.
	bad = tinyOpts()
	bad.Scale = -1
	if _, err := Search(context.Background(), bad); err == nil {
		t.Error("negative Scale accepted")
	}
	bad = tinyOpts()
	bad.Ratio16 = -1
	if _, err := Search(context.Background(), bad); err == nil {
		t.Error("negative Ratio16 accepted")
	}
}

// screenOpts is tinyOpts with multi-fidelity screening enabled: screen
// at a tenth of the full fidelity, then promote into a small full budget.
func screenOpts() Options {
	o := tinyOpts()
	o.ScreenInstrPerCore = 2_000
	o.ScreenBudget = 12
	o.Budget = 3
	return o
}

// TestScreenedSearch pins the multi-fidelity contract: the screening
// phase covers several times more candidates than a full-fidelity-only
// search of comparable instruction cost, and every full evaluation is a
// promoted (screened, feasible-frontier-adjacent) survivor.
func TestScreenedSearch(t *testing.T) {
	full := tinyOpts()
	full.Budget = 4
	fres, err := Search(context.Background(), full)
	if err != nil {
		t.Fatal(err)
	}
	// Full-only: 4 evaluations at 20k instr = 80k simulated. The
	// multi-fidelity search spends less — 12 screenings at 2k plus at
	// most 4 full evaluations (budget 3, one round past) = 104k at the
	// worst, 84k typical — yet simulates >=3x more distinct candidates.
	sres, err := Search(context.Background(), screenOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(sres.Screened) < 3*len(fres.Evaluated) {
		t.Fatalf("screening covered %d candidates, full-only %d: less than 3x", len(sres.Screened), len(fres.Evaluated))
	}
	screened := map[string]bool{}
	for _, p := range sres.Screened {
		screened[p.Design] = true
	}
	if len(sres.Evaluated) == 0 {
		t.Fatal("no candidates promoted to full fidelity")
	}
	for _, p := range sres.Evaluated {
		if !screened[p.Design] {
			t.Errorf("full evaluation of %s was never screened", p.Design)
		}
	}
	// The search stops at the first round boundary at or past Budget.
	if max := screenOpts().Budget + screenOpts().BatchSize - 1; len(sres.Evaluated) > max {
		t.Errorf("full evaluations %d exceed Budget %d by more than a round", len(sres.Evaluated), screenOpts().Budget)
	}
	for _, p := range sres.Frontier {
		if p.Infeasible {
			t.Errorf("infeasible point %s on the frontier", p.Design)
		}
	}
}

// TestScreenedDeterministic pins that two identical multi-fidelity
// searches produce byte-identical output, screened trail included.
func TestScreenedDeterministic(t *testing.T) {
	a, err := Search(context.Background(), screenOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Search(context.Background(), screenOpts())
	if err != nil {
		t.Fatal(err)
	}
	if ja, jb := resultJSON(t, a), resultJSON(t, b); string(ja) != string(jb) {
		t.Fatalf("same seed, different screened results:\n%s\n----\n%s", ja, jb)
	}
	if len(a.Screened) == 0 {
		t.Fatal("screened trail empty")
	}
}

// TestScreenedResumeMatchesUninterrupted is the multi-fidelity
// acceptance property: a screened search interrupted at any round
// boundary — inside the screening phase or the promotion phase — and
// resumed from its checkpoint yields byte-identical JSON to the same
// search run uninterrupted.
func TestScreenedResumeMatchesUninterrupted(t *testing.T) {
	dir := t.TempDir()

	want, err := Search(context.Background(), screenOpts())
	if err != nil {
		t.Fatal(err)
	}
	totalRounds := want.Rounds

	for k := 1; k < totalRounds; k++ {
		ckPath := filepath.Join(dir, "split.json")
		first := screenOpts()
		first.MaxRounds = k
		first.Checkpoint = ckPath
		partial, err := Search(context.Background(), first)
		if err != nil {
			t.Fatalf("pause at round %d: %v", k, err)
		}
		if partial.Complete {
			t.Fatalf("pause at round %d: search reports Complete", k)
		}
		second := screenOpts()
		second.Checkpoint = ckPath
		second.Resume = true
		got, err := Search(context.Background(), second)
		if err != nil {
			t.Fatalf("resume from round %d: %v", k, err)
		}
		if jw, jg := resultJSON(t, want), resultJSON(t, got); string(jw) != string(jg) {
			t.Fatalf("interrupt at round %d diverges from uninterrupted run:\nwant:\n%s\ngot:\n%s", k, jw, jg)
		}
		os.Remove(ckPath)
	}
}

// TestScreenedFingerprintGuard pins that single- and multi-fidelity
// checkpoints do not cross-resume: the screening fidelity is part of
// the fingerprint when (and only when) screening is enabled.
func TestScreenedFingerprintGuard(t *testing.T) {
	ckPath := filepath.Join(t.TempDir(), "ck.json")
	first := tinyOpts()
	first.MaxRounds = 1
	first.Checkpoint = ckPath
	if _, err := Search(context.Background(), first); err != nil {
		t.Fatal(err)
	}
	second := screenOpts()
	second.Checkpoint = ckPath
	second.Resume = true
	if _, err := Search(context.Background(), second); err == nil {
		t.Fatal("multi-fidelity resume accepted a single-fidelity checkpoint")
	}

	sck := filepath.Join(t.TempDir(), "sck.json")
	sfirst := screenOpts()
	sfirst.MaxRounds = 1
	sfirst.Checkpoint = sck
	if _, err := Search(context.Background(), sfirst); err != nil {
		t.Fatal(err)
	}
	plain := tinyOpts()
	plain.Checkpoint = sck
	plain.Resume = true
	if _, err := Search(context.Background(), plain); err == nil {
		t.Fatal("single-fidelity resume accepted a multi-fidelity checkpoint")
	}
	// Defaulted and explicit ScreenBudget spellings are the same search.
	sresume := screenOpts()
	sresume.ScreenBudget = 0 // defaults to 4x Budget = 8, as screenOpts spells explicitly
	sresume.Checkpoint = sck
	sresume.Resume = true
	if _, err := Search(context.Background(), sresume); err != nil {
		t.Fatalf("default-spelled ScreenBudget refused an explicit-spelled checkpoint: %v", err)
	}
}

// TestScreeningRequiresBudget pins the option validation: screening
// with an exhaustive (unbounded) full budget is a configuration error.
func TestScreeningRequiresBudget(t *testing.T) {
	bad := screenOpts()
	bad.Budget = 0
	if _, err := Search(context.Background(), bad); err == nil {
		t.Error("screening without a Budget accepted")
	}
}

// TestFrontierDominance unit-tests the incremental Pareto update.
func TestFrontierDominance(t *testing.T) {
	var f frontier
	f.add(Point{Design: "A", Objectives: Objectives{Speedup: 1.5, CapacityMB: 64, TrafficGB: 1}})
	f.add(Point{Design: "B", Objectives: Objectives{Speedup: 1.2, CapacityMB: 64, TrafficGB: 1}})   // dominated by A
	f.add(Point{Design: "C", Objectives: Objectives{Speedup: 1.2, CapacityMB: 16, TrafficGB: 1}})   // cheaper: kept
	f.add(Point{Design: "D", Objectives: Objectives{Speedup: 1.6, CapacityMB: 32, TrafficGB: 0.5}}) // evicts A too
	f.add(Point{Design: "E", Infeasible: true})
	got := f.sorted()
	want := []string{"C", "D"} // ascending capacity
	if len(got) != len(want) {
		t.Fatalf("frontier %v, want designs %v", got, want)
	}
	for i, p := range got {
		if p.Design != want[i] {
			t.Fatalf("frontier slot %d is %s, want %s", i, p.Design, want[i])
		}
	}
	// A point dominating an existing member evicts it.
	f.add(Point{Design: "F", Objectives: Objectives{Speedup: 1.7, CapacityMB: 32, TrafficGB: 0.5}})
	for _, p := range f.sorted() {
		if p.Design == "D" {
			t.Fatal("dominated point D survived")
		}
	}
}

// TestFingerprintPinned pins the checkpoint fingerprint's bytes: a
// checkpoint written by an earlier build must keep resuming, so the
// string may only change together with checkpointVersion.
func TestFingerprintPinned(t *testing.T) {
	s, err := newSearcher(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	const want = "v1|fam=H2DSE|wl=mcf|budget=6|seed=7|simseed=1|scale=16|instr=20000|ratio=1|batch=2|maxvals=3|ubound=0"
	if got := s.fingerprint(); got != want {
		t.Fatalf("fingerprint\n got %s\nwant %s", got, want)
	}
}

// TestEqualFidelitiesShareARunner pins that a screening phase at the
// full fidelity runs on the full phase's runner, so a promoted
// candidate's full runs are memo hits of its screened ones.
func TestEqualFidelitiesShareARunner(t *testing.T) {
	opts := screenOpts()
	opts.ScreenInstrPerCore = opts.InstrPerCore
	s, err := newSearcher(opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.screen.runner != s.full.runner {
		t.Error("equal fidelities run on two runners")
	}
	if s, err = newSearcher(screenOpts()); err != nil {
		t.Fatal(err)
	}
	if s.screen.runner == s.full.runner {
		t.Error("different fidelities share a runner")
	}
}
