package memtypes

import "testing"

func TestTrafficTotals(t *testing.T) {
	s := MemStats{
		NMReadBytes: 100, NMWriteBytes: 30,
		FMReadBytes: 500, FMWriteBytes: 70,
	}
	if got := s.NMTraffic(); got != 130 {
		t.Errorf("NMTraffic = %d, want 130", got)
	}
	if got := s.FMTraffic(); got != 570 {
		t.Errorf("FMTraffic = %d, want 570", got)
	}
}

func TestTrafficZero(t *testing.T) {
	var s MemStats
	if s.NMTraffic() != 0 || s.FMTraffic() != 0 {
		t.Errorf("empty stats report traffic: %+v", s)
	}
}

func TestWastedFrac(t *testing.T) {
	cases := []struct {
		fetched, used uint64
		want          float64
	}{
		{0, 0, 0},     // nothing fetched: defined as 0, not NaN
		{100, 100, 0}, // everything used
		{100, 25, 0.75},
		{4096, 0, 1}, // nothing used
	}
	for _, c := range cases {
		s := MemStats{FetchedBytes: c.fetched, UsedBytes: c.used}
		if got := s.WastedFrac(); got != c.want {
			t.Errorf("WastedFrac(fetched=%d, used=%d) = %v, want %v", c.fetched, c.used, got, c.want)
		}
	}
	// Using more than was fetched is a design bug: it fails loudly
	// instead of wrapping the uint64 subtraction or clamping to 0.
	for _, c := range [][2]uint64{{100, 101}, {0, 50}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WastedFrac(fetched=%d, used=%d) did not panic", c[0], c[1])
				}
			}()
			s := MemStats{FetchedBytes: c[0], UsedBytes: c[1]}
			s.WastedFrac()
		}()
	}
}

func TestCPULineGranularity(t *testing.T) {
	// The whole simulator assumes 64 B processor lines; several designs
	// derive vector sizes from it, so a silent change must fail loudly.
	if CPULineBytes != 64 {
		t.Fatalf("CPULineBytes = %d, want 64", CPULineBytes)
	}
}

// TestNextPeriodMatchesStepping pins NextPeriod against the loop it
// replaced, stepping next by period until it passes now, and checks that
// it saturates instead of wrapping near the largest Tick.
func TestNextPeriodMatchesStepping(t *testing.T) {
	for _, period := range []Tick{1, 3, 7, 160_000} {
		for _, next := range []Tick{period, 3*period + 2} {
			for _, d := range []Tick{0, 1, period - 1, period, period + 1, 5*period + 3} {
				now := next + d
				want := next
				for now >= want {
					want += period
				}
				if got := NextPeriod(next, now, period); got != want {
					t.Fatalf("NextPeriod(%d, %d, %d) = %d, want %d", next, now, period, got, want)
				}
			}
		}
	}
	const max = ^Tick(0)
	if got := NextPeriod(10, max-1, 100); got != max {
		t.Fatalf("near the largest Tick: got %d, want saturation at %d", got, max)
	}
	if got := NextPeriod(max-5, max-5, 3); got != max-2 {
		t.Fatalf("last boundary before the largest Tick: got %d, want %d", got, max-2)
	}
}
