// Package workload generates the deterministic synthetic memory-access
// streams that stand in for the paper's Pin-captured SPEC2017 and NAS
// traces (see DESIGN.md §2 for the substitution rationale). Each of the 30
// workloads of Table 2 is described by a Spec whose parameters (footprint,
// access intensity, hot-set skew, sequential-run length, write fraction,
// phase behaviour) reproduce the characteristics the evaluated policies
// are sensitive to.
package workload

import "fmt"

// Class is the MPKI grouping of Table 2 / Figures 12 and 15-18.
type Class int

// MPKI classes, ten workloads each.
const (
	High Class = iota
	Medium
	Low
)

func (c Class) String() string {
	switch c {
	case High:
		return "High"
	case Medium:
		return "Medium"
	case Low:
		return "Low"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Kind distinguishes multi-programmed (8 instances, private address
// spaces) from multi-threaded (shared address space) workloads.
type Kind int

// Workload kinds.
const (
	MP Kind = iota // multi-programmed: 8 rate copies, disjoint regions
	MT             // multi-threaded: 8 threads share one region
)

func (k Kind) String() string {
	if k == MT {
		return "MT"
	}
	return "MP"
}

// Spec describes one synthetic workload. Paper* fields record Table 2 for
// reference and reporting; the remaining fields drive the generator.
type Spec struct {
	Name  string
	Kind  Kind
	Class Class

	PaperMPKI        float64 // Table 2 LLC misses per kilo-instruction
	PaperFootprintGB float64 // Table 2 memory footprint
	PaperTrafficGB   float64 // Table 2 total memory traffic

	// Generator parameters.
	APKI      float64 // LLC accesses per kilo-instruction
	HotFrac   float64 // fraction of the footprint forming the hot set
	HotProb   float64 // probability an access run targets the hot set
	SeqRun    float64 // mean sequential run length, in 64 B lines
	WriteFrac float64 // fraction of accesses that are stores
	Phases    int     // working-set phases over the run (1 = stable)
}

// specs mirrors Table 2. APKI/HotFrac/HotProb/SeqRun are calibrated so the
// measured LLC MPKI of the scaled system lands near the paper's column
// while exhibiting the qualitative behaviour the paper describes (e.g.
// dc.B streaming with little reuse, deepsjeng wide footprint with very
// poor spatial locality, omnetpp poor spatial locality).
var specs = []Spec{
	// --- High MPKI ---
	{Name: "cg.D", Kind: MT, Class: High, PaperMPKI: 90.6, PaperFootprintGB: 7.8, PaperTrafficGB: 43.3,
		APKI: 100, HotFrac: 0.15, HotProb: 0.8, SeqRun: 16, WriteFrac: 0.12, Phases: 2},
	{Name: "sp.D", Kind: MT, Class: High, PaperMPKI: 30.1, PaperFootprintGB: 11.2, PaperTrafficGB: 21.6,
		APKI: 31, HotFrac: 0.10, HotProb: 0.50, SeqRun: 40, WriteFrac: 0.35, Phases: 2},
	{Name: "bt.D", Kind: MT, Class: High, PaperMPKI: 30.1, PaperFootprintGB: 10.7, PaperTrafficGB: 21.3,
		APKI: 31, HotFrac: 0.10, HotProb: 0.50, SeqRun: 40, WriteFrac: 0.38, Phases: 2},
	{Name: "fotonik3d", Kind: MP, Class: High, PaperMPKI: 28.1, PaperFootprintGB: 6.4, PaperTrafficGB: 19.9,
		APKI: 29, HotFrac: 0.12, HotProb: 0.45, SeqRun: 48, WriteFrac: 0.30, Phases: 1},
	{Name: "lbm", Kind: MP, Class: High, PaperMPKI: 27.4, PaperFootprintGB: 3.1, PaperTrafficGB: 21.7,
		APKI: 28, HotFrac: 0.25, HotProb: 0.30, SeqRun: 56, WriteFrac: 0.45, Phases: 1},
	{Name: "bwaves", Kind: MP, Class: High, PaperMPKI: 26.8, PaperFootprintGB: 3.3, PaperTrafficGB: 13.8,
		APKI: 27.6, HotFrac: 0.20, HotProb: 0.40, SeqRun: 56, WriteFrac: 0.25, Phases: 1},
	{Name: "lu.D", Kind: MT, Class: High, PaperMPKI: 25.8, PaperFootprintGB: 2.9, PaperTrafficGB: 19.1,
		APKI: 26.6, HotFrac: 0.15, HotProb: 0.50, SeqRun: 36, WriteFrac: 0.40, Phases: 2},
	{Name: "mcf", Kind: MP, Class: High, PaperMPKI: 25.8, PaperFootprintGB: 0.1, PaperTrafficGB: 12.6,
		APKI: 43.8, HotFrac: 0.10, HotProb: 0.60, SeqRun: 2.5, WriteFrac: 0.20, Phases: 1},
	{Name: "gcc", Kind: MP, Class: High, PaperMPKI: 21.2, PaperFootprintGB: 1.6, PaperTrafficGB: 13.0,
		APKI: 22.3, HotFrac: 0.20, HotProb: 0.55, SeqRun: 8, WriteFrac: 0.30, Phases: 3},
	{Name: "roms", Kind: MP, Class: High, PaperMPKI: 15.5, PaperFootprintGB: 2.3, PaperTrafficGB: 9.7,
		APKI: 15.7, HotFrac: 0.20, HotProb: 0.40, SeqRun: 48, WriteFrac: 0.33, Phases: 1},
	// --- Medium MPKI ---
	{Name: "mg.C", Kind: MT, Class: Medium, PaperMPKI: 14.2, PaperFootprintGB: 2.8, PaperTrafficGB: 8.9,
		APKI: 14.8, HotFrac: 0.15, HotProb: 0.60, SeqRun: 48, WriteFrac: 0.30, Phases: 2},
	{Name: "omnetpp", Kind: MP, Class: Medium, PaperMPKI: 9.8, PaperFootprintGB: 1.5, PaperTrafficGB: 6.9,
		APKI: 11.1, HotFrac: 0.12, HotProb: 0.70, SeqRun: 3.5, WriteFrac: 0.30, Phases: 1},
	{Name: "is.C", Kind: MT, Class: Medium, PaperMPKI: 9.0, PaperFootprintGB: 1.0, PaperTrafficGB: 5.4,
		APKI: 9.7, HotFrac: 0.20, HotProb: 0.55, SeqRun: 32, WriteFrac: 0.40, Phases: 1},
	{Name: "dc.B", Kind: MT, Class: Medium, PaperMPKI: 8.4, PaperFootprintGB: 4.0, PaperTrafficGB: 8.0,
		APKI: 8.4, HotFrac: 0.90, HotProb: 0.05, SeqRun: 64, WriteFrac: 0.40, Phases: 1},
	{Name: "ua.D", Kind: MT, Class: Medium, PaperMPKI: 7.8, PaperFootprintGB: 3.1, PaperTrafficGB: 4.9,
		APKI: 8.3, HotFrac: 0.10, HotProb: 0.65, SeqRun: 24, WriteFrac: 0.35, Phases: 2},
	{Name: "xz", Kind: MP, Class: Medium, PaperMPKI: 5.6, PaperFootprintGB: 0.7, PaperTrafficGB: 4.3,
		APKI: 6.5, HotFrac: 0.15, HotProb: 0.65, SeqRun: 10, WriteFrac: 0.35, Phases: 2},
	{Name: "parest", Kind: MP, Class: Medium, PaperMPKI: 4.3, PaperFootprintGB: 0.2, PaperTrafficGB: 2.2,
		APKI: 6.1, HotFrac: 0.20, HotProb: 0.70, SeqRun: 24, WriteFrac: 0.25, Phases: 1},
	{Name: "cactus", Kind: MP, Class: Medium, PaperMPKI: 3.4, PaperFootprintGB: 0.8, PaperTrafficGB: 2.0,
		APKI: 4, HotFrac: 0.15, HotProb: 0.72, SeqRun: 32, WriteFrac: 0.35, Phases: 1},
	{Name: "ft.C", Kind: MT, Class: Medium, PaperMPKI: 3.1, PaperFootprintGB: 0.9, PaperTrafficGB: 2.6,
		APKI: 3.5, HotFrac: 0.20, HotProb: 0.72, SeqRun: 48, WriteFrac: 0.40, Phases: 1},
	{Name: "cam4", Kind: MP, Class: Medium, PaperMPKI: 2.2, PaperFootprintGB: 0.3, PaperTrafficGB: 1.6,
		APKI: 2.9, HotFrac: 0.20, HotProb: 0.75, SeqRun: 32, WriteFrac: 0.30, Phases: 1},
	// --- Low MPKI ---
	{Name: "wrf", Kind: MP, Class: Low, PaperMPKI: 1.4, PaperFootprintGB: 0.4, PaperTrafficGB: 1.1,
		APKI: 3.2, HotFrac: 0.04, HotProb: 0.90, SeqRun: 32, WriteFrac: 0.30, Phases: 1},
	{Name: "xalanc", Kind: MP, Class: Low, PaperMPKI: 1.1, PaperFootprintGB: 0.1, PaperTrafficGB: 1.0,
		APKI: 4.8, HotFrac: 0.08, HotProb: 0.92, SeqRun: 2.5, WriteFrac: 0.25, Phases: 1},
	{Name: "imagick", Kind: MP, Class: Low, PaperMPKI: 1.1, PaperFootprintGB: 0.4, PaperTrafficGB: 0.9,
		APKI: 2.7, HotFrac: 0.04, HotProb: 0.92, SeqRun: 48, WriteFrac: 0.35, Phases: 1},
	{Name: "x264", Kind: MP, Class: Low, PaperMPKI: 0.9, PaperFootprintGB: 0.3, PaperTrafficGB: 0.6,
		APKI: 2.2, HotFrac: 0.05, HotProb: 0.93, SeqRun: 32, WriteFrac: 0.30, Phases: 1},
	{Name: "perlbench", Kind: MP, Class: Low, PaperMPKI: 0.7, PaperFootprintGB: 0.2, PaperTrafficGB: 0.4,
		APKI: 2.1, HotFrac: 0.06, HotProb: 0.94, SeqRun: 6, WriteFrac: 0.30, Phases: 1},
	{Name: "blender", Kind: MP, Class: Low, PaperMPKI: 0.7, PaperFootprintGB: 0.2, PaperTrafficGB: 0.3,
		APKI: 2, HotFrac: 0.06, HotProb: 0.94, SeqRun: 24, WriteFrac: 0.25, Phases: 1},
	{Name: "deepsjeng", Kind: MP, Class: Low, PaperMPKI: 0.3, PaperFootprintGB: 3.4, PaperTrafficGB: 0.2,
		APKI: 0.5, HotFrac: 0.015, HotProb: 0.94, SeqRun: 2, WriteFrac: 0.25, Phases: 1},
	{Name: "nab", Kind: MP, Class: Low, PaperMPKI: 0.2, PaperFootprintGB: 0.2, PaperTrafficGB: 0.1,
		APKI: 0.7, HotFrac: 0.05, HotProb: 0.96, SeqRun: 24, WriteFrac: 0.30, Phases: 1},
	{Name: "leela", Kind: MP, Class: Low, PaperMPKI: 0.1, PaperFootprintGB: 0.1, PaperTrafficGB: 0.1,
		APKI: 0.4, HotFrac: 0.08, HotProb: 0.97, SeqRun: 2.5, WriteFrac: 0.20, Phases: 1},
	{Name: "namd", Kind: MP, Class: Low, PaperMPKI: 0.13, PaperFootprintGB: 0.1, PaperTrafficGB: 0.1,
		APKI: 0.5, HotFrac: 0.08, HotProb: 0.97, SeqRun: 24, WriteFrac: 0.30, Phases: 1},
}

// Specs returns the 30 workloads of Table 2 in paper order (sorted by
// MPKI class, high to low).
func Specs() []Spec {
	out := make([]Spec, len(specs))
	copy(out, specs)
	return out
}

// ByName looks a workload up by its Table 2 name.
func ByName(name string) (Spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}
