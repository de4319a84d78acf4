package dse

import "sort"

// Objectives is the objective vector of one evaluated candidate. The
// search maximizes Speedup and minimizes CapacityMB and TrafficGB; no
// scalarization is applied — trade-offs surface as the Pareto frontier.
type Objectives struct {
	// Speedup is the geometric-mean cycle speedup over the evaluated
	// workloads, normalized to the no-NM baseline.
	Speedup float64 `json:"speedup"`
	// CapacityMB is the DRAM capacity the organization spends, at paper
	// scale: the cacheMB parameter for families that expose one, the
	// full near-memory size otherwise, 0 for NM-less designs.
	CapacityMB float64 `json:"capacity_mb"`
	// TrafficGB is the mean write traffic per run across both memory
	// devices, in GB: all bytes written to NM (demand writes, cache
	// fills, migrations in, remap/tag metadata) plus all bytes written
	// to FM (writebacks, evictions, migrations out). Migration and
	// writeback cost dominates the differences between candidates, but
	// the counter is total write traffic, not migrations alone.
	TrafficGB float64 `json:"traffic_gb"`
}

// dominates reports Pareto dominance: a is at least as good as b on
// every objective and strictly better on at least one.
func (a Objectives) dominates(b Objectives) bool {
	if a.Speedup < b.Speedup || a.CapacityMB > b.CapacityMB || a.TrafficGB > b.TrafficGB {
		return false
	}
	return a.Speedup > b.Speedup || a.CapacityMB < b.CapacityMB || a.TrafficGB < b.TrafficGB
}

// Point is one evaluated candidate design.
type Point struct {
	Design string `json:"design"`
	Objectives
	// Infeasible marks a candidate that parsed but failed to build or
	// run (typically a capacity constraint at the simulated scale); its
	// objectives are zero and it never joins the frontier, but it is
	// recorded — and checkpointed — so a resumed search does not retry it.
	Infeasible bool   `json:"infeasible,omitempty"`
	Err        string `json:"error,omitempty"`
}

// frontier maintains the Pareto-optimal subset of the feasible points
// seen so far, updated incrementally as batches merge.
type frontier struct{ pts []Point }

// add offers a point to the frontier: a dominated or infeasible point is
// dropped, otherwise it joins and evicts every point it dominates.
// Points with identical objective vectors coexist.
func (f *frontier) add(p Point) {
	if p.Infeasible {
		return
	}
	for _, q := range f.pts {
		if q.Objectives.dominates(p.Objectives) {
			return
		}
	}
	keep := f.pts[:0]
	for _, q := range f.pts {
		if !p.Objectives.dominates(q.Objectives) {
			keep = append(keep, q)
		}
	}
	f.pts = append(keep, p)
}

// sorted returns the frontier ordered for reporting: ascending capacity
// (the cost axis), then ascending traffic, then descending speedup, then
// name — a deterministic order for any insertion history.
func (f *frontier) sorted() []Point {
	out := append([]Point(nil), f.pts...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.CapacityMB != b.CapacityMB {
			return a.CapacityMB < b.CapacityMB
		}
		if a.TrafficGB != b.TrafficGB {
			return a.TrafficGB < b.TrafficGB
		}
		if a.Speedup != b.Speedup {
			return a.Speedup > b.Speedup
		}
		return a.Design < b.Design
	})
	return out
}

// sortedByName returns the frontier ordered by design name — the
// deterministic iteration order of the hill-climb's neighbor expansion.
func (f *frontier) sortedByName() []Point {
	out := append([]Point(nil), f.pts...)
	sort.Slice(out, func(i, j int) bool { return out[i].Design < out[j].Design })
	return out
}
