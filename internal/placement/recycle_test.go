package placement

import (
	"sync"
	"testing"
)

// checkTable reports, as an error of t, whether some entry of tab does
// not read want.
func checkTable(t *testing.T, what string, tab *Table, want []uint32) bool {
	t.Helper()
	if len(tab.shared) != len(want) {
		t.Errorf("%s: table over %d entries, want %d", what, len(tab.shared), len(want))
		return false
	}
	for i, w := range want {
		if got := tab.Get(uint32(i)); got != w {
			t.Errorf("%s: entry %d reads %d, want %d", what, i, got, w)
			return false
		}
	}
	return true
}

// inverseOf returns the first k entries of the inverse of p.
func inverseOf(p []uint32, k int) []uint32 {
	inv := make([]uint32, k)
	for logical, phys := range p {
		if int(phys) < k {
			inv[phys] = uint32(logical)
		}
	}
	return inv
}

// TestRecyclingNeverTakesABufferInUse: goroutines that keep tables over
// their own placements read them intact while others re-seed tables
// through enough placements to evict every entry of the memo many times
// over, so that released buffers are recycled all along (run with
// -race). Every read equals a fresh shuffle's.
func TestRecyclingNeverTakesABufferInUse(t *testing.T) {
	const n, k = budgetBytes / 4 / 8, budgetBytes / 4 / 64 // 8 permutations fill the memo
	resetMemo()
	var churned sync.WaitGroup
	done := make(chan struct{})
	for c := range 2 {
		churned.Add(1)
		go func() {
			defer churned.Done()
			seed := uint64(1000 + 100*c)
			remap, owner := PermTable(seed, n), InverseTable(seed, n, k)
			for i := range 12 {
				seed += 2 // seeds 2j and 2j+1 share a placement
				remap.Set(uint32(i), 1)
				remap.Reset(seed)
				owner.Reset(seed)
				want := shuffled(seed, n)
				if !checkTable(t, "re-seeded permutation", &remap, want) ||
					!checkTable(t, "re-seeded inverse", &owner, inverseOf(want, k)) {
					return
				}
			}
		}()
	}
	go func() { churned.Wait(); close(done) }()
	var kept sync.WaitGroup
	for g := range 2 {
		kept.Add(1)
		go func() {
			defer kept.Done()
			seed := uint64(1 + 2*g)
			want := shuffled(seed, n)
			remap, owner := PermTable(seed, n), InverseTable(seed, n, k)
			for {
				if !checkTable(t, "kept permutation", &remap, want) ||
					!checkTable(t, "kept inverse", &owner, inverseOf(want, k)) {
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	kept.Wait()
}

// TestNoBufferIsHeldTwice: after tables are re-seeded past the memo's
// budget, some of them more than once and some not at all, so that
// entries are evicted both while tables read them and after, no two
// entries the memo or a table holds share a buffer, every table reads
// its own placement, and the memo counts exactly its entries' buffers,
// within the budget.
func TestNoBufferIsHeldTwice(t *testing.T) {
	const n = budgetBytes / 4 / 6
	resetMemo()
	var tables []Table
	for i := range 6 {
		tables = append(tables, PermTable(uint64(100+2*i), n))
	}
	for i := range 4 {
		for j := range i + 1 {
			tables[i].Reset(uint64(1000 + 100*i + 2*j))
		}
	}
	for i, tab := range tables {
		if tab.src.refs < 1 {
			t.Errorf("table %d's entry (seed %d) counts %d references", i, tab.src.key.seed, tab.src.refs)
		}
		checkTable(t, "re-seeded table", &tab, shuffled(tab.src.key.seed, n))
	}
	mu.Lock()
	defer mu.Unlock()
	holder := map[*uint32]*entry{}
	hold := func(e *entry) {
		if h, ok := holder[&e.buf[0]]; ok && h != e {
			t.Errorf("the entries of seeds %d and %d share a buffer", h.key.seed, e.key.seed)
		}
		holder[&e.buf[0]] = e
	}
	counted := 0
	for _, e := range lru {
		hold(e)
		counted += 4 * cap(e.buf)
	}
	for _, tab := range tables {
		hold(tab.src)
	}
	if counted != bytes || bytes > budgetBytes {
		t.Errorf("the memo counts %d bytes for entries of %d, budget %d", bytes, counted, budgetBytes)
	}
}

// TestReseedRecyclesItsReleasedPlacement: with the memo full of
// placements that tables read, a table reset to a new seed releases
// its old placement, and the new one is shuffled into that buffer. The
// least recently used entry, which another table still reads, is
// passed over, and every table reads its own placement.
func TestReseedRecyclesItsReleasedPlacement(t *testing.T) {
	const n = budgetBytes / 4 / 3 // three fit the memo
	resetMemo()
	a, b, c := PermTable(11, n), PermTable(21, n), PermTable(23, n)
	old := &b.shared[0]
	b.Reset(31)
	if &b.shared[0] != old {
		t.Error("the new placement did not reuse the released one's buffer")
	}
	checkTable(t, "recycled placement", &b, shuffled(31, n))
	checkTable(t, "placement passed over", &a, shuffled(11, n))
	checkTable(t, "placement read while resident", &c, shuffled(23, n))
}
