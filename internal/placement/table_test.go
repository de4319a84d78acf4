package placement

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// overlayLimit returns the most slots a table over n entries holds
// before it turns dense.
func overlayLimit(n int) int {
	l := 0
	for s := minSlots; 4*s <= n; s *= 2 {
		l = s
	}
	return l
}

// TestTableMatchesDenseModel drives tables over bases of several sizes
// through phases of random Set and Get, each ending in a Reset, and
// checks every read against a dense slice that Reset refills from the
// base. The phases write just past each doubling of the overlay and, at
// the end, past the bound where the table turns dense, which must be
// the write that would fill the largest overlay past half. The indices
// are biased to ones that share a home slot at every overlay size and
// to rewrites of entries already written.
func TestTableMatchesDenseModel(t *testing.T) {
	for _, n := range []int{1, 17, 300, 4096, 70000} {
		base := Perm(uint64(n), n)
		tab := PermTable(uint64(n), n)
		model := append([]uint32(nil), base...)
		rng := rand.New(rand.NewSource(int64(n)))

		// Indices with equal top bits of i*hashMul share a home slot at
		// every overlay size up to the largest, and so collide in each.
		limit := overlayLimit(n)
		homes := make([][]uint32, limit)
		if limit > 0 {
			shift := 32 - uint32(bits.TrailingZeros(uint(limit)))
			for i := range uint32(n) {
				homes[i*hashMul>>shift] = append(homes[i*hashMul>>shift], i)
			}
		}
		var crowded [][]uint32
		for _, idx := range homes {
			if len(idx) > 1 {
				crowded = append(crowded, idx)
			}
		}
		var written []uint32
		index := func() uint32 {
			switch r := rng.Intn(3); {
			case r == 0 && len(crowded) > 0:
				idx := crowded[rng.Intn(len(crowded))]
				return idx[rng.Intn(len(idx))]
			case r == 1 && len(written) > 0:
				return written[rng.Intn(len(written))]
			}
			return uint32(rng.Intn(n))
		}

		// A phase per doubling, writing one entry past the fill limit
		// of the overlay before it; one that fills the largest overlay;
		// and one that writes twice as many entries, or all, and so
		// turns the table dense.
		var targets []int
		for s := minSlots; s < limit; s *= 2 {
			targets = append(targets, s/2+1)
		}
		toDense := n // a table with no room for an overlay: its first write
		if limit > 0 {
			targets = append(targets, limit/2)
			toDense = 2 * limit
		}
		targets = append(targets, toDense)
		for phase, target := range targets {
			distinct := map[uint32]bool{}
			for op := 0; len(distinct) < target; op++ {
				if op > 40*n+1000 {
					t.Fatalf("n=%d phase %d: wrote %d distinct entries in %d ops", n, phase, len(distinct), op)
				}
				if rng.Intn(2) == 0 {
					i, v := index(), rng.Uint32()
					tab.Set(i, v)
					model[i] = v
					distinct[i] = true
					written = append(written, i)
					if dense := tab.parked != nil; dense != (len(distinct) > limit/2) {
						t.Fatalf("n=%d phase %d: %d distinct writes left the table dense=%v", n, phase, len(distinct), dense)
					}
				} else if i := index(); tab.Get(i) != model[i] {
					t.Fatalf("n=%d phase %d op %d: Get(%d) = %d, want %d", n, phase, op, i, tab.Get(i), model[i])
				}
			}
			for i := range uint32(n) {
				if tab.Get(i) != model[i] {
					t.Fatalf("n=%d phase %d: Get(%d) = %d, want %d", n, phase, i, tab.Get(i), model[i])
				}
			}
			tab.Reset(uint64(n))
			copy(model, base)
			written = written[:0]
			for i := range uint32(n) {
				if tab.Get(i) != base[i] {
					t.Fatalf("n=%d phase %d: Get(%d) = %d after Reset, want the base's %d", n, phase, i, tab.Get(i), base[i])
				}
			}
		}
		if base2 := Perm(uint64(n), n); &base2[0] != &base[0] || !equal(base2, shuffled(uint64(n), n)) {
			t.Fatalf("n=%d: the table wrote its base", n)
		}
	}
}

func equal(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTableResetReusesMemory: after a Reset the table backs writes with
// the memory it kept, the emptied overlay or the dense copy, so running
// the same writes again allocates nothing, and an entry written after
// the Reset reads its new value while every other entry reads the base.
func TestTableResetReusesMemory(t *testing.T) {
	const n = 1 << 14
	base := Perm(3, n)
	for _, c := range []struct {
		name   string
		writes uint32
		dense  bool
	}{{"overlay", 500, false}, {"dense", n / 2, true}} {
		t.Run(c.name, func(t *testing.T) {
			tab := PermTable(3, n)
			write := func() {
				for i := uint32(0); i < c.writes; i++ {
					tab.Set(i*2, 1)
				}
			}
			write()
			if dense := tab.parked != nil; dense != c.dense {
				t.Fatalf("%d writes left the table dense=%v", c.writes, dense)
			}
			tab.Reset(3)
			if allocs := testing.AllocsPerRun(10, func() { write(); tab.Reset(3) }); allocs != 0 {
				t.Errorf("rewriting after Reset allocated %v times", allocs)
			}
			tab.Set(3, 9)
			for i := range uint32(n) {
				want := base[i]
				if i == 3 {
					want = 9
				}
				if tab.Get(i) != want {
					t.Fatalf("Get(%d) = %d, want %d", i, tab.Get(i), want)
				}
			}
		})
	}
}

// TestTableAllocatesPerWrite: a table over a scale-16 flat space
// (557,056 sectors) that takes a 1M-instruction MemPod run's 6,710
// remap writes allocates for those writes, not for the whole space.
// A paged copy-on-write table took about 320 B per write.
func TestTableAllocatesPerWrite(t *testing.T) {
	const n, writes = 557056, 6710
	Perm(5, n) // memoizes the base
	rng := rand.New(rand.NewSource(5))
	idx := make([]uint32, 0, writes)
	seen := map[uint32]bool{}
	for len(idx) < writes {
		if i := uint32(rng.Intn(n)); !seen[i] {
			seen[i] = true
			idx = append(idx, i)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tab := PermTable(5, n)
	for _, i := range idx {
		tab.Set(i, i)
	}
	runtime.ReadMemStats(&after)
	perWrite := float64(after.TotalAlloc-before.TotalAlloc) / writes
	if perWrite >= 48 {
		t.Errorf("PermTable and %d writes allocated %.1f B per write, want under 48", writes, perWrite)
	}
	t.Logf("%.1f B per write", perWrite)
	for _, i := range idx {
		if tab.Get(i) != i {
			t.Fatalf("Get(%d) = %d, want %d", i, tab.Get(i), i)
		}
	}
}

// TestTableIndexOutsideBasePanics: Set refuses an index at or past the
// base's length instead of keeping it, and Get of such an index panics
// on the base's bounds, with the table empty, holding writes or dense.
func TestTableIndexOutsideBasePanics(t *testing.T) {
	panics := func(t *testing.T, what string, f func(), want string) {
		t.Helper()
		defer func() {
			t.Helper()
			r := recover()
			if r == nil {
				t.Fatalf("%s did not panic", what)
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
				t.Fatalf("%s panicked with %q, want it to name %q", what, msg, want)
			}
		}()
		f()
	}
	for _, writes := range []uint32{0, 10, 300} {
		tab := PermTable(1, 300)
		for i := range writes {
			tab.Set(i, 7)
		}
		if dense := tab.parked != nil; dense != (writes == 300) {
			t.Fatalf("%d writes left the table dense=%v", writes, dense)
		}
		panics(t, fmt.Sprintf("after %d writes, Set(400, 7)", writes), func() { tab.Set(400, 7) }, "placement: Set(400) on a table of 300 entries")
		panics(t, fmt.Sprintf("after %d writes, Set(300, 7)", writes), func() { tab.Set(300, 7) }, "placement:")
		panics(t, fmt.Sprintf("after %d writes, Get(400)", writes), func() { tab.Get(400) }, "index out of range")
		panics(t, fmt.Sprintf("after %d writes, Get(2^32-1)", writes), func() { tab.Get(1<<32 - 1) }, "index out of range")
	}
}

// BenchmarkTableGet reads random entries of a table over a scale-16 flat
// space after 0 writes, a 1M-instruction MemPod run's 6,710 and the
// 65,536 that fill the largest overlay.
func BenchmarkTableGet(b *testing.B) {
	const n = 557056
	Perm(9, n) // memoizes the base
	rng := rand.New(rand.NewSource(9))
	reads := make([]uint32, 1<<16)
	for i := range reads {
		reads[i] = uint32(rng.Intn(n))
	}
	for _, writes := range []int{0, 6710, 65536} {
		b.Run(fmt.Sprintf("writes=%d", writes), func(b *testing.B) {
			tab := PermTable(9, n)
			for range writes {
				tab.Set(uint32(rng.Intn(n)), 1)
			}
			var sum uint32
			b.ResetTimer()
			for i := range b.N {
				sum += tab.Get(reads[i&(len(reads)-1)])
			}
			sink = sum
		})
	}
}

var sink uint32
