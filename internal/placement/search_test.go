package placement_test

import (
	"context"
	"testing"

	"hybridmem/internal/config"
	"hybridmem/internal/dse"
	"hybridmem/internal/placement"
)

// screenedSearch runs one search shaped like the repository benchmark's
// explore-screen workload: four families over mcf, lbm and xz, 64
// screening runs at 10k instructions per core promoting to 8 runs at
// 100k, on one worker. It returns the entries shuffled and the entries
// of the distinct placements the search asked for.
func screenedSearch(tb testing.TB, seed uint64) (shuffled, distinct int) {
	tb.Helper()
	stop := placement.CountShuffles()
	_, err := dse.Search(context.Background(), dse.Options{
		Families:           []string{"H2DSE", "DFC", "MPOD", "LGM"},
		Workloads:          []string{"mcf", "lbm", "xz"},
		Budget:             8,
		BatchSize:          8,
		Seed:               seed,
		Scale:              config.DefaultScale,
		InstrPerCore:       100_000,
		SimSeed:            seed,
		Ratio16:            1,
		ScreenInstrPerCore: 10_000,
		ScreenBudget:       64,
		Parallelism:        1,
		MaxPerParam:        4,
	})
	shuffled, distinct = stop()
	if err != nil {
		tb.Fatal(err)
	}
	return shuffled, distinct
}

// TestScreenedSearchShufflesEachPlacementOnce: the full-fidelity phase
// of a screened search returns to the placements screening built, in
// the same order, and the memo keeps enough of them within its budget
// that the search shuffles at most 10% more entries than its distinct
// placements hold. Least-recently-used eviction shuffled 1.5 times the
// distinct entries on this loop.
func TestScreenedSearchShufflesEachPlacementOnce(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		shuffled, distinct := screenedSearch(t, seed)
		if distinct == 0 {
			t.Fatalf("seed %d: the search shuffled no placement", seed)
		}
		if float64(shuffled) > 1.10*float64(distinct) {
			t.Errorf("seed %d: shuffled %d entries for %d distinct (%.2fx), want at most 1.10x",
				seed, shuffled, distinct, float64(shuffled)/float64(distinct))
		}
	}
}

// BenchmarkScreenedSearch reports the placement entries one
// explore-screen-shaped search shuffles, next to the distinct entries
// it needs, in millions per search.
func BenchmarkScreenedSearch(b *testing.B) {
	var shuffled, distinct int
	for i := 0; i < b.N; i++ {
		s, d := screenedSearch(b, uint64(i%8)+1)
		shuffled += s
		distinct += d
	}
	b.ReportMetric(float64(shuffled)/1e6/float64(b.N), "shuffled_Mentries/op")
	b.ReportMetric(float64(distinct)/1e6/float64(b.N), "distinct_Mentries/op")
}
