package exp

import (
	"fmt"

	"hybridmem/internal/config"
	"hybridmem/internal/stats"
	"hybridmem/internal/workload"
)

// Fig1Lines are the DRAM-cache line sizes swept by Figure 1.
var Fig1Lines = []int{64, 128, 256, 512, 1024, 2048, 4096}

// Fig1 reproduces Figure 1: average fraction of data fetched into a 1 GB
// (scaled) ideal DRAM cache that remained unused, per cache line size.
func Fig1(r *Runner) (Table, map[int]float64) {
	t := Table{Title: "Figure 1: wasted DRAM-cache data vs line size (paper: 0%,6%,10%,15%,19%,22%,26%)",
		Header: []string{"LineBytes", "Wasted"}}
	designs := make([]string, len(Fig1Lines))
	for i, line := range Fig1Lines {
		designs[i] = fmt.Sprintf("IDEAL-%d", line)
	}
	r.mustSweep(designs, []int{1})
	out := make(map[int]float64, len(Fig1Lines))
	for _, line := range Fig1Lines {
		var fr []float64
		for _, wl := range r.Workloads() {
			res := r.Result(wl, fmt.Sprintf("IDEAL-%d", line), 1)
			fr = append(fr, res.Mem.WastedFrac())
		}
		avg := stats.Mean(fr)
		out[line] = avg
		t.AddRow(fmt.Sprintf("%d", line), pct(avg))
	}
	return t, out
}

// Fig2Designs lists the motivation-study designs of Figure 2.
func Fig2Designs() []string {
	d := []string{"MPOD", "CHA", "LGM", "TAGLESS"}
	for _, l := range []int{128, 256, 512, 1024, 2048, 4096} {
		d = append(d, fmt.Sprintf("DFC-%d", l))
	}
	for _, l := range []int{64, 128, 256, 512, 1024, 2048, 4096} {
		d = append(d, fmt.Sprintf("IDEAL-%d", l))
	}
	return d
}

// Fig2 reproduces Figure 2: min, max and geometric-mean speedup over the
// no-NM baseline for migration schemes and DRAM caches at 1 GB NM scale.
func Fig2(r *Runner) (Table, map[string][3]float64) {
	t := Table{Title: "Figure 2: min/max/geomean speedup of migration and DRAM-cache designs (1:16 NM)",
		Header: []string{"Design", "Min", "Max", "Geomean"}}
	r.mustSweep(withBaseline(Fig2Designs()), []int{1})
	out := make(map[string][3]float64)
	for _, d := range Fig2Designs() {
		sp := r.AllSpeedups(d, 1)
		v := [3]float64{stats.Min(sp), stats.Max(sp), stats.Geomean(sp)}
		out[d] = v
		t.AddRow(d, f2(v[0]), f2(v[1]), f2(v[2]))
	}
	return t, out
}

// Tab1 reproduces Table 1: the system configuration.
func Tab1(scale int) Table {
	sys := config.Scaled(scale, 1)
	t := Table{Title: fmt.Sprintf("Table 1: system configuration (scale 1/%d)", scale),
		Header: []string{"Component", "Configuration"}}
	t.AddRow("Cores", fmt.Sprintf("%d cores, out-of-order, %d-way issue, %.1f GHz (interval model)",
		config.Cores, config.IssueWidth, config.CPUFreqGHz))
	t.AddRow("L3 Cache", fmt.Sprintf("shared %d KB, %d-way, %d-cycle access", sys.LLCBytes>>10, config.LLCAssoc, config.LLCLatency))
	t.AddRow("Near Memory", fmt.Sprintf("HBM2, %d MB (x1/x2/x4), 8 channels x 128-bit, 8 banks, tCAS-tRCD-tRP 7-7-7, 6.4 pJ/bit, 15 nJ ACT/PRE", sys.NMBytes>>20))
	t.AddRow("Far Memory", fmt.Sprintf("DDR4-3200, %d MB, 2 channels x 64-bit, 8 banks, tCAS-tRCD-tRP 22-22-22, 33 pJ/bit, 15 nJ ACT/PRE", sys.FMBytes>>20))
	t.AddRow("Hybrid2", fmt.Sprintf("%d MB DRAM cache, %d B sectors, %d B lines, %d-way XTA",
		sys.Hybrid2CacheBytes()>>20, config.SectorBytes, config.Hybrid2LineBytes, config.XTAAssoc))
	return t
}

// Tab2 reproduces Table 2: measured MPKI, footprint and memory traffic of
// every workload on the baseline system.
func Tab2(r *Runner) Table {
	t := Table{Title: "Table 2: benchmark characteristics (measured on baseline, scaled system)",
		Header: []string{"Benchmark", "Class", "Kind", "MPKI", "PaperMPKI", "Footprint(MB)", "Traffic(MB)"}}
	r.mustSweep([]string{"Baseline"}, []int{1})
	for _, wl := range r.Workloads() {
		res := r.Result(wl, "Baseline", 1)
		fpMB := wl.PaperFootprintGB * 1024 / float64(r.Scale)
		trafficMB := float64(res.Mem.FMTraffic()) / (1 << 20)
		t.AddRow(wl.Name, wl.Class.String(), wl.Kind.String(),
			fmt.Sprintf("%.1f", res.MPKI), fmt.Sprintf("%.1f", wl.PaperMPKI),
			fmt.Sprintf("%.0f", fpMB), fmt.Sprintf("%.0f", trafficMB))
	}
	return t
}

// DSEPoint is one Figure 11 configuration.
type DSEPoint struct {
	CacheMB  int // paper-scale cache size in MB
	SectorKB int
	Line     int
}

func (p DSEPoint) String() string {
	return fmt.Sprintf("%dMB-%dKB-%dB", p.CacheMB, p.SectorKB, p.Line)
}

// xtaBytes estimates the XTA size of a DSE point at paper scale: one
// entry per sector with tag+pointers+counter (~9 B) plus two bits per
// cache line for the valid/dirty vectors.
func (p DSEPoint) xtaBytes() int {
	entries := p.CacheMB << 20 / (p.SectorKB << 10)
	linesPerSector := p.SectorKB << 10 / p.Line
	entryBytes := 9 + 2*linesPerSector/8
	return entries * entryBytes
}

// Fig11Points returns the design-space points of Figure 11: every
// combination of {64,128 MB} cache, {2,4 KB} sector and {64..512 B} line
// whose XTA fits the paper's 512 KB on-chip budget.
func Fig11Points() []DSEPoint {
	var pts []DSEPoint
	for _, cacheMB := range []int{64, 128} {
		for _, sectorKB := range []int{2, 4} {
			for _, line := range []int{64, 128, 256, 512} {
				p := DSEPoint{CacheMB: cacheMB, SectorKB: sectorKB, Line: line}
				if p.xtaBytes() <= 512<<10 {
					pts = append(pts, p)
				}
			}
		}
	}
	return pts
}

// Fig11 reproduces Figure 11: geometric-mean speedup of each Hybrid2
// configuration within the XTA budget.
func Fig11(r *Runner) (Table, map[string]float64) {
	t := Table{Title: "Figure 11: Hybrid2 design-space exploration (paper best: 64MB-2KB-256B)",
		Header: []string{"Config", "Geomean speedup"}}
	designs := []string{"Baseline"}
	for _, p := range Fig11Points() {
		designs = append(designs, fmt.Sprintf("H2DSE-%d-%d-%d", p.CacheMB, p.SectorKB, p.Line))
	}
	r.mustSweep(designs, []int{1})
	out := make(map[string]float64)
	for _, p := range Fig11Points() {
		design := fmt.Sprintf("H2DSE-%d-%d-%d", p.CacheMB, p.SectorKB, p.Line)
		g := stats.Geomean(r.AllSpeedups(design, 1))
		out[p.String()] = g
		t.AddRow(p.String(), f3(g))
	}
	return t, out
}

// classesAndAll is the row layout of Figures 12 and 15-18.
var classesAndAll = []string{"High", "Medium", "Low", "All"}

// classTable sweeps the given designs at ratio16, then tabulates for
// each main design the geomean of metric per MPKI class and over every
// workload, each cell formatted by cell: the layout of Figures 12 and
// 15-18.
func (r *Runner) classTable(title string, sweep []string, ratio16 int, cell func(float64) string, metric func(wl workload.Spec, d string) float64) (Table, map[string][]float64) {
	t := Table{Title: title, Header: append([]string{"Design"}, classesAndAll...)}
	r.mustSweep(sweep, []int{ratio16})
	out := make(map[string][]float64)
	for _, d := range MainDesigns {
		byClass := map[string][]float64{}
		for _, wl := range r.Workloads() {
			v := metric(wl, d)
			byClass[wl.Class.String()] = append(byClass[wl.Class.String()], v)
			byClass["All"] = append(byClass["All"], v)
		}
		row := []string{d}
		for _, c := range classesAndAll {
			g := stats.Geomean(byClass[c])
			out[d] = append(out[d], g)
			row = append(row, cell(g))
		}
		t.AddRow(row...)
	}
	return t, out
}

// Fig12 reproduces Figure 12: geomean speedup per MPKI class for each
// design at NM:FM ratios 1:16, 2:16 and 4:16.
func Fig12(r *Runner, ratio16 int) (Table, map[string][]float64) {
	return r.classTable(fmt.Sprintf("Figure 12 (%d GB-scale NM, %d:16): geomean speedup by MPKI class", ratio16, ratio16),
		withBaseline(MainDesigns), ratio16, f3, func(wl workload.Spec, d string) float64 { return r.Speedup(wl, d, ratio16) })
}

// Fig13 reproduces Figure 13: per-benchmark speedup at the 1:16 ratio.
func Fig13(r *Runner) (Table, map[string]map[string]float64) {
	t := Table{Title: "Figure 13: per-benchmark speedup over baseline (1:16 NM)",
		Header: append([]string{"Benchmark"}, MainDesigns...)}
	r.mustSweep(withBaseline(MainDesigns), []int{1})
	out := make(map[string]map[string]float64)
	for _, wl := range r.Workloads() {
		row := []string{wl.Name}
		m := make(map[string]float64, len(MainDesigns))
		for _, d := range MainDesigns {
			s := r.Speedup(wl, d, 1)
			m[d] = s
			row = append(row, f2(s))
		}
		out[wl.Name] = m
		t.AddRow(row...)
	}
	return t, out
}

// Fig14Variants is the row order of Figure 14.
var Fig14Variants = []string{"H2-CacheOnly", "H2-MigrAll", "H2-MigrNone", "H2-NoRemap", "HYBRID2"}

// Fig14 reproduces Figure 14: the performance-factor breakdown of Hybrid2
// (paper: 1.43, 1.41, 1.39, 1.58, 1.54).
func Fig14(r *Runner) (Table, map[string]float64) {
	t := Table{Title: "Figure 14: Hybrid2 performance factors breakdown (1:16 NM)",
		Header: []string{"Variant", "Geomean speedup"}}
	r.mustSweep(withBaseline(Fig14Variants), []int{1})
	out := make(map[string]float64)
	for _, d := range Fig14Variants {
		g := stats.Geomean(r.AllSpeedups(d, 1))
		out[d] = g
		t.AddRow(d, f3(g))
	}
	return t, out
}

// Fig15 reproduces Figure 15: fraction of processor requests served from
// NM, geomean per MPKI class (1:16 NM).
func Fig15(r *Runner) (Table, map[string][]float64) {
	return r.classTable("Figure 15: requests served from NM (1:16 NM)", MainDesigns, 1, pct,
		func(wl workload.Spec, d string) float64 { return r.Result(wl, d, 1).ServedNMFrac() })
}

// Fig16 reproduces Figure 16: FM traffic normalized to the baseline.
func Fig16(r *Runner) (Table, map[string][]float64) {
	return r.classTable("Figure 16: normalized FM traffic (1:16 NM)", withBaseline(MainDesigns), 1, f2, func(wl workload.Spec, d string) float64 {
		base, res := r.Result(wl, "Baseline", 1), r.Result(wl, d, 1)
		return stats.Ratio(float64(res.Mem.FMTraffic()), float64(base.Mem.FMTraffic()))
	})
}

// Fig17 reproduces Figure 17: NM traffic normalized to the baseline's
// total memory traffic.
func Fig17(r *Runner) (Table, map[string][]float64) {
	return r.classTable("Figure 17: normalized NM traffic (1:16 NM)", withBaseline(MainDesigns), 1, f2, func(wl workload.Spec, d string) float64 {
		base, res := r.Result(wl, "Baseline", 1), r.Result(wl, d, 1)
		return stats.Ratio(float64(res.Mem.NMTraffic()), float64(base.Mem.FMTraffic()))
	})
}

// Fig18 reproduces Figure 18: dynamic memory energy normalized to the
// baseline.
func Fig18(r *Runner) (Table, map[string][]float64) {
	return r.classTable("Figure 18: normalized dynamic memory energy (1:16 NM)", withBaseline(MainDesigns), 1, f2, func(wl workload.Spec, d string) float64 {
		base, res := r.Result(wl, "Baseline", 1), r.Result(wl, d, 1)
		return stats.Ratio(res.DynamicEnergyNJ(), base.DynamicEnergyNJ())
	})
}
