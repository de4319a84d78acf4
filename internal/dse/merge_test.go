package dse

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// FrontierOf computes the Pareto frontier of a set of evaluated points
// in the canonical reporting order (see frontier.sorted). Infeasible
// points never join. The fold is order-independent — dominance is
// transitive, so every dominated point is rejected or evicted no matter
// when its dominator arrives — which is what lets a distributed search
// shard its evaluations freely.
func FrontierOf(pts []Point) []Point { return MergeFrontiers(pts) }

// MergeFrontiers folds per-shard frontiers into the frontier of their
// union with frontier.add: MergeFrontiers(FrontierOf(s) for every shard
// s of S) is identical to FrontierOf(S) for any partition and any shard
// order — points dominated within a shard are also dominated in the
// union, and cross-shard dominance resolves during the merge fold.
func MergeFrontiers(shards ...[]Point) []Point {
	var f frontier
	for _, s := range shards {
		for _, p := range s {
			f.add(p)
		}
	}
	return f.sorted()
}

// randomTrail generates an evaluated-candidate trail with deliberate
// collisions: objectives drawn from small discrete sets so duplicates,
// ties and dominance chains all occur, plus a sprinkle of infeasible
// points (which must never reach any frontier).
func randomTrail(rng *rand.Rand, n int) []Point {
	speedups := []float64{0.8, 1.0, 1.2, 1.2, 1.5, 2.0}
	capacities := []float64{16, 64, 64, 256, 1024}
	traffics := []float64{0.5, 1.0, 1.0, 2.0}
	pts := make([]Point, n)
	for i := range pts {
		if rng.Intn(8) == 0 {
			pts[i] = Point{Design: fmt.Sprintf("D%d", i), Infeasible: true, Err: "capacity"}
			continue
		}
		pts[i] = Point{
			Design: fmt.Sprintf("D%d", i),
			Objectives: Objectives{
				Speedup:    speedups[rng.Intn(len(speedups))],
				CapacityMB: capacities[rng.Intn(len(capacities))],
				TrafficGB:  traffics[rng.Intn(len(traffics))],
			},
		}
	}
	return pts
}

// TestMergeFrontiersProperty pins the identity distributed exploration
// rests on: for any partition of a trail into k shards, in any shard
// order and any within-shard order,
//
//	MergeFrontiers(FrontierOf(shard) for each shard) == FrontierOf(trail)
//
// If this ever breaks, sharded searches stop being byte-identical to
// single-process ones.
func TestMergeFrontiersProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(24)
		trail := randomTrail(rng, n)
		want := FrontierOf(trail)

		for k := 1; k <= 5; k++ {
			for perm := 0; perm < 4; perm++ {
				// Random permutation of the trail, split into k contiguous
				// shards at random boundaries (empty shards allowed).
				shuffled := append([]Point(nil), trail...)
				rng.Shuffle(len(shuffled), func(i, j int) {
					shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
				})
				cuts := make([]int, k+1)
				cuts[k] = len(shuffled)
				for i := 1; i < k; i++ {
					cuts[i] = rng.Intn(len(shuffled) + 1)
				}
				for i := 1; i < k; i++ { // sort the interior cuts
					for j := i + 1; j < k; j++ {
						if cuts[j] < cuts[i] {
							cuts[i], cuts[j] = cuts[j], cuts[i]
						}
					}
				}
				shards := make([][]Point, k)
				for i := 0; i < k; i++ {
					shards[i] = FrontierOf(shuffled[cuts[i]:cuts[i+1]])
				}
				got := MergeFrontiers(shards...)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d, k=%d, perm %d: merge(frontiers) != frontier(union)\nmerged: %+v\nwant:   %+v\ncuts: %v",
						trial, k, perm, got, want, cuts)
				}
			}
		}
	}
}

// TestMergeFrontiersEmpty pins the degenerate inputs.
func TestMergeFrontiersEmpty(t *testing.T) {
	if got := MergeFrontiers(); len(got) != 0 {
		t.Fatalf("merge of nothing = %+v", got)
	}
	if got := FrontierOf(nil); len(got) != 0 {
		t.Fatalf("frontier of nil = %+v", got)
	}
	only := []Point{{Design: "A", Objectives: Objectives{Speedup: 1, CapacityMB: 1, TrafficGB: 1}}}
	if got := MergeFrontiers(nil, FrontierOf(only), nil); !reflect.DeepEqual(got, only) {
		t.Fatalf("merge with empty shards = %+v, want %+v", got, only)
	}
}
