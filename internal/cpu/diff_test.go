package cpu

// Differential test of the heap-ordered MSHRs and write buffer against
// the linear-scan core they replaced.

import (
	"math/rand"
	"testing"

	"hybridmem/internal/memtypes"
)

// scanCore is the stall logic the heaps replaced, kept as the reference
// model: each reservation scans for the lowest-indexed oldest slot.
type scanCore struct {
	Time        memtypes.Tick
	outstanding []memtypes.Tick
	writeBuf    []memtypes.Tick
}

func scanReserve(slots []memtypes.Tick, now *memtypes.Tick, done memtypes.Tick) {
	oldest := 0
	for i, t := range slots {
		if t < slots[oldest] {
			oldest = i
		}
	}
	if wait := slots[oldest]; wait > *now {
		*now = wait
	}
	slots[oldest] = done
}

func (c *scanCore) DrainMisses() {
	for _, t := range c.outstanding {
		if t > c.Time {
			c.Time = t
		}
	}
}

// TestMatchesScanCore drives both models with random completion times,
// some already in the past, for every MLP from 1 to 64, and compares the
// core time after every stall and after the final drain.
func TestMatchesScanCore(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for mlp := 1; mlp <= 64; mlp++ {
		got := New(mlp)
		want := &scanCore{outstanding: make([]memtypes.Tick, mlp), writeBuf: make([]memtypes.Tick, 16)}
		for n := 0; n < 5000; n++ {
			if gap := memtypes.Tick(rng.Intn(8)); gap > 0 {
				got.AddLatency(gap)
				want.Time += gap
			}
			done := got.Time - min(got.Time, 50) + memtypes.Tick(rng.Intn(600))
			if rng.Intn(3) == 0 {
				got.StallForWrite(done)
				scanReserve(want.writeBuf, &want.Time, done)
			} else {
				got.StallForMiss(done)
				scanReserve(want.outstanding, &want.Time, done)
			}
			if got.Time != want.Time {
				t.Fatalf("mlp %d op %d: time %d, want %d", mlp, n, got.Time, want.Time)
			}
		}
		got.DrainMisses()
		want.DrainMisses()
		if got.Time != want.Time {
			t.Fatalf("mlp %d: drained to %d, want %d", mlp, got.Time, want.Time)
		}
	}
}

// BenchmarkStallForWrite times a write-buffer reservation on a core that
// keeps the 16-entry buffer full: completions land 100 to 400 cycles out.
func BenchmarkStallForWrite(b *testing.B) {
	c := New(8)
	rng := rand.New(rand.NewSource(1))
	lat := make([]memtypes.Tick, 1<<12)
	for i := range lat {
		lat[i] = memtypes.Tick(100 + rng.Intn(300))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AddLatency(20)
		c.StallForWrite(c.Time + lat[i&(len(lat)-1)])
	}
}

// divCompute is the compute model the constant issue width replaced:
// a division and a remainder by a runtime width.
type divCompute struct{ time, instr, rem, width uint64 }

func (d *divCompute) advance(gap uint64) {
	d.instr += gap
	work := gap + d.rem
	d.time += work / d.width
	d.rem = work % d.width
}

// TestComputeMatchesDivision drives AdvanceCompute and the division
// model at width 4 with random gap sequences mixing small gaps, zero and
// gaps near 2^63 and 2^64, so that both the per-record work and the
// running totals wrap, and compares time, retired instructions and the
// sub-cycle remainder after every gap.
func TestComputeMatchesDivision(t *testing.T) {
	const top = ^uint64(0)
	edges := []uint64{0, 1, 2, 3, 4, 5, 6, 7, 1 << 62, 1<<63 - 1, 1 << 63, top - 2, top}
	rng := rand.New(rand.NewSource(1))
	for seq := 0; seq < 200; seq++ {
		got := New(1)
		want := &divCompute{width: 4}
		for n := 0; n < 500; n++ {
			gap := edges[rng.Intn(len(edges))]
			if rng.Intn(3) == 0 {
				gap = rng.Uint64() >> uint(rng.Intn(64))
			}
			got.AdvanceCompute(gap)
			want.advance(gap)
			if uint64(got.Time) != want.time || got.Instructions != want.instr || got.computeRem != want.rem {
				t.Fatalf("seq %d gap %d (%d): time %d instr %d rem %d, want %d %d %d", seq, n, gap,
					got.Time, got.Instructions, got.computeRem, want.time, want.instr, want.rem)
			}
		}
	}
}
