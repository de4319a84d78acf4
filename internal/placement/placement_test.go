package placement

import (
	"sync"
	"testing"
)

// TestPermIsSeededPermutation: Perm is a permutation of [0, n), a pure
// function of (seed, n), and the same whether shuffled or memoized.
func TestPermIsSeededPermutation(t *testing.T) {
	for _, n := range []int{1, 2, 17, 1000} {
		p := Perm(9, n)
		seen := make([]bool, n)
		for _, v := range p {
			if int(v) >= n || seen[v] {
				t.Fatalf("n=%d: %d repeated or out of range", n, v)
			}
			seen[v] = true
		}
		fresh := shuffle(9, n)
		for i := range p {
			if p[i] != fresh[i] || Perm(9, n)[i] != fresh[i] {
				t.Fatalf("n=%d: memoized permutation differs from the shuffle at %d", n, i)
			}
		}
	}
	p, inv := Perm(5, 1000), Inverse(5, 1000, 1000)
	for logical, phys := range p {
		if inv[phys] != uint32(logical) {
			t.Fatalf("Inverse(5, 1000, 1000)[%d] = %d, want %d", phys, inv[phys], logical)
		}
	}
	a, b := Perm(1, 1000), Perm(2, 1000)
	same := true
	for i := range a {
		same = same && a[i] == b[i]
	}
	if same {
		t.Error("seeds 1 and 2 give the same permutation")
	}
}

// TestInversePrefix: Inverse(seed, n, k) is the first k entries of the
// full inverse, for k from 0 to n, memoized or not.
func TestInversePrefix(t *testing.T) {
	const n = 3000
	full := Inverse(11, n, n)
	for _, k := range []int{0, 1, 17, 1024, n - 1, n} {
		for range 2 { // computed, then memoized
			inv := Inverse(11, n, k)
			if len(inv) != k {
				t.Fatalf("Inverse(11, %d, %d) has %d entries", n, k, len(inv))
			}
			for phys, logical := range inv {
				if logical != full[phys] {
					t.Fatalf("Inverse(11, %d, %d)[%d] = %d, want %d", n, k, phys, logical, full[phys])
				}
			}
		}
	}
}

// TestPermBudget: the memoized permutations never exceed the byte
// budget, and one larger than the budget is returned but not kept.
func TestPermBudget(t *testing.T) {
	n := budgetBytes / 4 / 3
	for seed := uint64(0); seed < 8; seed++ {
		Perm(seed, n)
	}
	Perm(1, budgetBytes/4+1)
	mu.Lock()
	defer mu.Unlock()
	total := 0
	for _, e := range lru {
		total += 4 * len(e.v)
	}
	if total != bytes || bytes > budgetBytes {
		t.Errorf("memoized %d bytes (counted %d) over a %d-byte budget", total, bytes, budgetBytes)
	}
}

// TestPermConcurrent: concurrent callers, on shared and distinct keys,
// all get the seeded permutation (run with -race).
func TestPermConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			seed := uint64(100 + g%3)
			p, want := Perm(seed, 5000), shuffle(seed, 5000)
			for i := range p {
				if p[i] != want[i] {
					t.Errorf("goroutine %d: permutation differs at %d", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
