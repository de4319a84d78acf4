package exp

import (
	"context"
	"strings"
	"testing"

	"hybridmem/internal/obs"
	"hybridmem/internal/workload"
)

// tiny returns a minimal-cost runner for harness-logic tests.
func tiny() *Runner {
	r := NewRunner()
	r.InstrPerCore = 60_000
	specs := workload.Specs()
	// One workload per class keeps class aggregation meaningful.
	r.Subset = []workload.Spec{specs[4], specs[15], specs[29]} // lbm, xz, namd
	return r
}

func TestRunnerMemoizes(t *testing.T) {
	r := tiny()
	wl := r.Workloads()[0]
	a := r.Result(wl, "HYBRID2", 1)
	b := r.Result(wl, "HYBRID2", 1)
	if a != b {
		t.Fatal("memoized result differs")
	}
	if r.MemoStats().Entries == 0 {
		t.Fatal("no results cached")
	}
}

func TestBaselineSharedAcrossRatios(t *testing.T) {
	r := tiny()
	wl := r.Workloads()[0]
	r.Result(wl, "Baseline", 1)
	before := r.MemoStats().Entries
	r.Result(wl, "Baseline", 4) // must not add a second entry
	if r.MemoStats().Entries != before {
		t.Fatal("baseline re-run for a different NM ratio")
	}
}

func TestAllDesignNamesBuild(t *testing.T) {
	r := tiny()
	wl := r.Workloads()[1]
	names := append([]string{"Baseline"}, MainDesigns...)
	names = append(names, "IDEAL-128", "DFC-2048", "H2-CacheOnly", "H2-MigrAll",
		"H2-MigrNone", "H2-NoRemap", "H2DSE-64-2-64")
	for _, d := range names {
		res := r.Result(wl, d, 1)
		if res.Cycles == 0 {
			t.Fatalf("design %s produced no cycles", d)
		}
	}
}

func TestUnknownDesignPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown design did not panic")
		}
	}()
	r := tiny()
	r.Result(r.Workloads()[0], "BOGUS", 1)
}

// TestRunnerRejectsBadConfig: a run whose configuration
// config.ValidateRun rejects fails before anything simulates, and the
// ratio is checked as passed, also for a design that ignores near
// memory.
func TestRunnerRejectsBadConfig(t *testing.T) {
	var sims obs.Counter
	r := tiny()
	r.InstrPerCore = 0
	r.SimCounter = &sims
	wl := r.Workloads()[0]
	if _, err := r.ResultErr(wl, "Baseline", 1); err == nil {
		t.Error("zero-instruction run accepted")
	}
	if _, err := r.RunTrace("t", strings.NewReader("0 10 1000 R\n"), "Baseline", 1, 2); err == nil {
		t.Error("zero-instruction trace run accepted")
	}
	if n := sims.Value(); n != 0 {
		t.Errorf("rejected runs simulated %d times", n)
	}

	r = tiny()
	if _, err := r.ResultErr(wl, "Baseline", 3); err == nil {
		t.Error("ResultErr accepted NM ratio 3")
	}
	if _, errs := r.ResultsByName(context.Background(), []Run{{Design: "Baseline", Workload: wl.Name, Ratio16: 3}}); errs[0] == nil {
		t.Error("ResultsByName accepted NM ratio 3")
	}
}

func TestFig11PointsWithinBudget(t *testing.T) {
	pts := Fig11Points()
	if len(pts) == 0 {
		t.Fatal("no DSE points")
	}
	for _, p := range pts {
		if p.xtaBytes() > 512<<10 {
			t.Fatalf("point %s exceeds the 512 KB XTA budget", p)
		}
	}
	// The paper's best configuration must be in the sweep.
	found := false
	for _, p := range pts {
		if p.CacheMB == 64 && p.SectorKB == 2 && p.Line == 256 {
			found = true
		}
	}
	if !found {
		t.Fatal("64MB-2KB-256B missing from the design space")
	}
}

func TestFig1MonotoneWaste(t *testing.T) {
	r := tiny()
	_, waste := Fig1(r)
	if waste[64] != 0 {
		t.Fatalf("64 B lines waste %f, want 0", waste[64])
	}
	prev := -1.0
	for _, line := range Fig1Lines {
		if waste[line] < prev-0.02 {
			t.Fatalf("waste not (near) monotone at %d: %f < %f", line, waste[line], prev)
		}
		prev = waste[line]
	}
}

func TestFig12TableShape(t *testing.T) {
	r := tiny()
	tab, vals := Fig12(r, 1)
	if len(tab.Rows) != len(MainDesigns) {
		t.Fatalf("rows %d, want %d", len(tab.Rows), len(MainDesigns))
	}
	for d, v := range vals {
		if len(v) != 4 {
			t.Fatalf("%s has %d aggregates, want 4", d, len(v))
		}
		for _, x := range v {
			if x <= 0 {
				t.Fatalf("%s has non-positive aggregate %v", d, v)
			}
		}
	}
}

func TestFig14VariantsCovered(t *testing.T) {
	r := tiny()
	_, vals := Fig14(r)
	for _, v := range Fig14Variants {
		if vals[v] <= 0 {
			t.Fatalf("variant %s missing", v)
		}
	}
}

func TestFig15FractionsInRange(t *testing.T) {
	r := tiny()
	_, vals := Fig15(r)
	for d, v := range vals {
		for _, frac := range v {
			if frac < 0 || frac > 1 {
				t.Fatalf("%s served fraction %f out of range", d, frac)
			}
		}
	}
}

func TestTablesRender(t *testing.T) {
	r := tiny()
	tabs := []Table{Tab1(16), Tab2(r)}
	for _, tab := range tabs {
		out := tab.String()
		if !strings.Contains(out, "==") || len(out) < 40 {
			t.Fatalf("table rendered poorly:\n%s", out)
		}
	}
}

func TestQuickRunnerSubset(t *testing.T) {
	r := NewQuickRunner()
	if len(r.Workloads()) == 0 || len(r.Workloads()) >= 30 {
		t.Fatalf("quick runner sweeps %d workloads", len(r.Workloads()))
	}
}

func TestAblationsCoverAllVariants(t *testing.T) {
	r := tiny()
	_, vals := Ablations(r)
	if len(vals) != len(AblationVariants) {
		t.Fatalf("got %d variants, want %d", len(vals), len(AblationVariants))
	}
	for d, g := range vals {
		if g <= 0 {
			t.Fatalf("variant %s has non-positive speedup", d)
		}
	}
}

func TestSeedSensitivityOrdering(t *testing.T) {
	r := tiny()
	_, vals := SeedSensitivity(r, []uint64{1, 2})
	for d, v := range vals {
		if !(v[0] <= v[1] && v[1] <= v[2]) {
			t.Fatalf("%s: min/mean/max out of order: %v", d, v)
		}
	}
}

func TestExtrasTableCoversExtraDesigns(t *testing.T) {
	r := tiny()
	_, vals := ExtrasTable(r)
	for _, d := range ExtraDesigns {
		if _, ok := vals[d]; !ok {
			t.Fatalf("extra design %s missing", d)
		}
	}
}

func TestRunTraceReplaysRecords(t *testing.T) {
	r := tiny()
	const traceText = "0 10 1000 R\n0 5 1040 W\n1 3 2000 R\n"
	res, err := r.RunTrace("t", strings.NewReader(traceText), "Baseline", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.LLCAccesses != 3 {
		t.Fatalf("LLC accesses %d, want 3", res.LLCAccesses)
	}
	if res.Instructions != 10+5+3+3 {
		t.Fatalf("instructions %d, want 21", res.Instructions)
	}
}

func TestRunTraceBadInput(t *testing.T) {
	r := tiny()
	if _, err := r.RunTrace("t", strings.NewReader("garbage"), "Baseline", 1, 2); err == nil {
		t.Fatal("malformed trace accepted")
	}
}

func TestTableCSV(t *testing.T) {
	tab := Table{Title: "Figure 9: things, stuff", Header: []string{"a", "b"}}
	tab.AddRow("x,y", `q"r`)
	csv := tab.CSV()
	want := "a,b\n\"x,y\",\"q\"\"r\"\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
	if slug := tab.Slug(); slug != "figure_9" {
		t.Fatalf("slug = %q", slug)
	}
}

func TestPathBreakdownFractions(t *testing.T) {
	r := tiny()
	_, fracs := PathBreakdown(r)
	if len(fracs) != len(r.Workloads()) {
		t.Fatalf("got %d workloads, want %d", len(fracs), len(r.Workloads()))
	}
	for wl, f := range fracs {
		if f < 0 || f > 1 {
			t.Fatalf("%s: 2b fraction %f out of range", wl, f)
		}
	}
}

func TestPrefetchStudyBothColumns(t *testing.T) {
	r := tiny()
	_, vals := PrefetchStudy(r)
	for d, v := range vals {
		if v[0] <= 0 || v[1] <= 0 {
			t.Fatalf("%s has non-positive entries %v", d, v)
		}
	}
}

func TestDetailTables(t *testing.T) {
	r := tiny()
	tabs := Detail(r)
	if len(tabs) != 4 {
		t.Fatalf("got %d detail tables, want 4", len(tabs))
	}
	for _, tab := range tabs {
		if len(tab.Rows) != len(r.Workloads()) {
			t.Fatalf("%s: %d rows, want %d", tab.Title, len(tab.Rows), len(r.Workloads()))
		}
	}
}
