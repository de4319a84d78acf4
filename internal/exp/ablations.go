package exp

import (
	"context"
	"fmt"

	"hybridmem/internal/core"
	"hybridmem/internal/design"
	"hybridmem/internal/sim"
	"hybridmem/internal/stats"
	"hybridmem/internal/workload"
)

// AblationVariants are the Hybrid2 design-choice sweeps DESIGN.md calls
// out, beyond the paper's own Fig. 11/14 studies: the access-counter
// width, the FM-budget reset period, the on-chip Free-FM-Stack window,
// the XTA associativity, and the §3.8 free-space extension at increasing
// free fractions.
var AblationVariants = []struct {
	Design string
	Label  string
}{
	{"HYBRID2", "reference (9-bit ctr, 100K reset, 16 stack, 16-way)"},
	{"H2ABL-ctr-3", "3-bit access counters"},
	{"H2ABL-ctr-13", "13-bit access counters"},
	{"H2ABL-reset-25000", "budget reset every 25K cycles"},
	{"H2ABL-reset-400000", "budget reset every 400K cycles"},
	{"H2ABL-stack-1", "1 on-chip Free-FM-Stack entry"},
	{"H2ABL-stack-64", "64 on-chip Free-FM-Stack entries"},
	{"H2ABL-assoc-4", "4-way XTA"},
	{"H2ABL-free-250", "25% of memory hinted free (§3.8)"},
	{"H2ABL-free-500", "50% of memory hinted free (§3.8)"},
}

// Ablations evaluates each variant's geometric-mean speedup at the 1:16
// ratio, quantifying the sensitivity of Hybrid2 to its design constants.
func Ablations(r *Runner) (Table, map[string]float64) {
	t := Table{Title: "Ablations: Hybrid2 design-choice sensitivity (1:16 NM)",
		Header: []string{"Variant", "Geomean speedup", "Description"}}
	designs := []string{"Baseline"}
	for _, v := range AblationVariants {
		designs = append(designs, v.Design)
	}
	r.mustSweep(designs, []int{1})
	out := make(map[string]float64, len(AblationVariants))
	for _, v := range AblationVariants {
		g := stats.Geomean(r.AllSpeedups(v.Design, 1))
		out[v.Design] = g
		t.AddRow(v.Design, f3(g), v.Label)
	}
	return t, out
}

// SeedSensitivity reruns the main designs under several seeds (different
// initial page placements and access-stream draws) and reports the
// spread of the overall geomean speedup — a confidence check that the
// reported orderings are not artifacts of one placement.
func SeedSensitivity(r *Runner, seeds []uint64) (Table, map[string][3]float64) {
	t := Table{Title: fmt.Sprintf("Seed sensitivity over %d seeds (1:16 NM)", len(seeds)),
		Header: []string{"Design", "Min", "Mean", "Max"}}
	// One sub-runner per seed, each pre-warmed over the full design set,
	// so the baseline runs once per seed instead of once per (design,
	// seed) pair as the old demand-running loop did.
	subs := make([]*Runner, len(seeds))
	for i, seed := range seeds {
		subs[i] = r.clone()
		subs[i].Seed = seed
		subs[i].mustSweep(withBaseline(MainDesigns), []int{1})
	}
	out := make(map[string][3]float64)
	for _, d := range MainDesigns {
		var gs []float64
		for _, sub := range subs {
			gs = append(gs, stats.Geomean(sub.AllSpeedups(d, 1)))
		}
		v := [3]float64{stats.Min(gs), stats.Mean(gs), stats.Max(gs)}
		out[d] = v
		t.AddRow(d, f3(v[0]), f3(v[1]), f3(v[2]))
	}
	return t, out
}

// ExtrasTable evaluates the §2 related-work designs implemented beyond
// the paper's figures (CAMEO, ALLOY, FOOTPRINT) with the same min/max/
// geomean format as Figure 2, extending the motivation study.
func ExtrasTable(r *Runner) (Table, map[string][3]float64) {
	t := Table{Title: "Extra related-work designs (min/max/geomean speedup, 1:16 NM)",
		Header: []string{"Design", "Min", "Max", "Geomean"}}
	r.mustSweep(withBaseline(ExtraDesigns), []int{1})
	out := make(map[string][3]float64)
	for _, d := range ExtraDesigns {
		sp := r.AllSpeedups(d, 1)
		v := [3]float64{stats.Min(sp), stats.Max(sp), stats.Geomean(sp)}
		out[d] = v
		t.AddRow(d, f2(v[0]), f2(v[1]), f2(v[2]))
	}
	return t, out
}

// PathBreakdown runs Hybrid2 on each workload and reports the mix of
// Fig. 7 access-path outcomes, checking the paper's §3.4 claim that only
// ~9.3% of accesses need the heavyweight 2b handling (XTA miss with the
// sector in FM: remap read, NM allocation, inverted-remap update).
func PathBreakdown(r *Runner) (Table, map[string]float64) {
	t := Table{Title: "Hybrid2 access-path breakdown (Fig. 7 outcomes, 1:16 NM; paper: 9.3% need 2b)",
		Header: []string{"Benchmark", "1a-hit", "1b-linefetch", "2a-adopt", "2b-allocate"}}
	// These runs need the core's path counters, which the memoized
	// sim.Result does not carry, so they bypass the Runner cache and fan
	// out over parallelForCtx directly; rows land in workload order.
	wls := r.Workloads()
	stats2b := make([]core.PathStats, len(wls))
	err := r.parallelForCtx(context.Background(), len(wls), func(i int) error {
		sys := r.system(1)
		ms, nm, fm, err := design.Build("HYBRID2", sys)
		if err != nil {
			return err
		}
		h := ms.(*core.Hybrid2)
		sim.Run(wls[i], h, nm, fm, sys)
		stats2b[i] = h.PathStats()
		return nil
	})
	if err != nil {
		panic(err) // HYBRID2 is statically well-formed; see mustSweep
	}

	out := make(map[string]float64)
	var fracs []float64
	for i, wl := range wls {
		p := stats2b[i]
		total := float64(p.Hit1a + p.Hit1b + p.Miss2a + p.Miss2b)
		if total == 0 {
			total = 1
		}
		out[wl.Name] = p.Frac2b()
		fracs = append(fracs, p.Frac2b())
		t.AddRow(wl.Name,
			pct(float64(p.Hit1a)/total), pct(float64(p.Hit1b)/total),
			pct(float64(p.Miss2a)/total), pct(float64(p.Miss2b)/total))
	}
	t.AddRow("MEAN", "", "", "", pct(stats.Mean(fracs)))
	return t, out
}

// PrefetchStudy compares the main designs with and without a next-line
// LLC prefetcher — a knob the paper calls orthogonal to its techniques.
func PrefetchStudy(r *Runner) (Table, map[string][2]float64) {
	t := Table{Title: "Next-line LLC prefetcher study (geomean speedup, 1:16 NM)",
		Header: []string{"Design", "No prefetch", "With prefetch"}}
	out := make(map[string][2]float64)
	pf := r.clone()
	pf.Prefetch = true
	r.mustSweep(withBaseline(MainDesigns), []int{1})
	pf.mustSweep(withBaseline(MainDesigns), []int{1})
	for _, d := range MainDesigns {
		base := stats.Geomean(r.AllSpeedups(d, 1))
		with := stats.Geomean(pf.AllSpeedups(d, 1))
		out[d] = [2]float64{base, with}
		t.AddRow(d, f3(base), f3(with))
	}
	return t, out
}

// detailMetric computes one per-benchmark column value.
type detailMetric struct {
	name string
	f    func(r *Runner, wl workload.Spec, design string) string
}

// Detail produces the per-benchmark counterpart of Figures 15-18: served
// fraction, normalized FM and NM traffic, and normalized energy for every
// workload and main design, for readers who want more than class
// geomeans.
func Detail(r *Runner) []Table {
	metrics := []detailMetric{
		{"served-from-NM", func(r *Runner, wl workload.Spec, d string) string {
			return pct(r.Result(wl, d, 1).ServedNMFrac())
		}},
		{"normalized FM traffic", func(r *Runner, wl workload.Spec, d string) string {
			base := r.Result(wl, "Baseline", 1)
			return f2(stats.Ratio(func() float64 { m := r.Result(wl, d, 1).Mem; return float64(m.FMTraffic()) }(), func() float64 { m := base.Mem; return float64(m.FMTraffic()) }()))
		}},
		{"normalized NM traffic", func(r *Runner, wl workload.Spec, d string) string {
			base := r.Result(wl, "Baseline", 1)
			return f2(stats.Ratio(func() float64 { m := r.Result(wl, d, 1).Mem; return float64(m.NMTraffic()) }(), func() float64 { m := base.Mem; return float64(m.FMTraffic()) }()))
		}},
		{"normalized dynamic energy", func(r *Runner, wl workload.Spec, d string) string {
			base := r.Result(wl, "Baseline", 1)
			return f2(stats.Ratio(r.Result(wl, d, 1).DynamicEnergyNJ(), base.DynamicEnergyNJ()))
		}},
	}
	r.mustSweep(withBaseline(MainDesigns), []int{1})
	var out []Table
	for _, m := range metrics {
		t := Table{Title: "Per-benchmark " + m.name + " (1:16 NM)",
			Header: append([]string{"Benchmark"}, MainDesigns...)}
		for _, wl := range r.Workloads() {
			row := []string{wl.Name}
			for _, d := range MainDesigns {
				row = append(row, m.f(r, wl, d))
			}
			t.AddRow(row...)
		}
		out = append(out, t)
	}
	return out
}
