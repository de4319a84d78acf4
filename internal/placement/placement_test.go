package placement

import (
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
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
		fresh := shuffled(9, n)
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
// inverse of Perm(seed, n), built here by scattering the permutation,
// for k from 0 to n, memoized or not; the shared slice has no room past
// its k entries.
func TestInversePrefix(t *testing.T) {
	const n = 3000
	full := make([]uint32, n)
	for logical, phys := range Perm(11, n) {
		full[phys] = uint32(logical)
	}
	for _, k := range []int{0, 1, 17, 1024, n - 1, n} {
		for range 2 { // computed, then memoized
			inv := Inverse(11, n, k)
			if len(inv) != k || cap(inv) != k {
				t.Fatalf("Inverse(11, %d, %d) has len %d cap %d, want %d", n, k, len(inv), cap(inv), k)
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
// budget, counted over the buffers they hold, and one larger than the
// budget is returned but not kept.
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
		total += 4 * cap(e.buf)
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
			p, want := Perm(seed, 5000), shuffled(seed, 5000)
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

// TestConcurrentMissesShuffleOnce: goroutines that miss on one cold key
// together wait for the first one's shuffle instead of shuffling again
// (run with -race).
func TestConcurrentMissesShuffleOnce(t *testing.T) {
	const callers, n = 8, 1 << 16
	want := shuffled(42, n)
	var started sync.WaitGroup
	started.Add(callers)
	stop := CountShuffles()
	inner := observe
	observe = func(seed uint64, n int) {
		// Hold the first shuffle until every caller has started, and a
		// little longer so they reach the memo: the test passes however
		// late they come, but only a memo without in-flight entries
		// lets an early one shuffle again.
		started.Wait()
		time.Sleep(10 * time.Millisecond)
		inner(seed, n)
	}
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started.Done()
			if !equal(Perm(42, n), want) {
				t.Error("a waiting caller got another permutation")
			}
		}()
	}
	wg.Wait()
	if shuffled, _ := stop(); shuffled != n {
		t.Errorf("%d callers of one cold key shuffled %d entries, want one shuffle of %d", callers, shuffled, n)
	}
}

// TestSeedPairsShareOnePlacement: the shuffle reads seed|1, so Perm
// of seeds 2k and 2k+1 is one permutation, shuffled once and memoized as
// one slice, and so is Inverse.
func TestSeedPairsShareOnePlacement(t *testing.T) {
	const n = 4096
	stop := CountShuffles()
	even, odd := Perm(6, n), Perm(7, n)
	invEven, invOdd := Inverse(6, n, n/4), Inverse(7, n, n/4)
	if shuffled, _ := stop(); shuffled != n {
		t.Errorf("Perm and Inverse of seeds 6 and 7 shuffled %d entries, want one shuffle of %d", shuffled, n)
	}
	if &even[0] != &odd[0] || &invEven[0] != &invOdd[0] {
		t.Error("seeds 6 and 7 were memoized as two placements")
	}
	if !equal(odd, shuffled(7, n)) {
		t.Error("the shared placement differs from seed 7's shuffle")
	}
}

// TestBadArgumentsPanic: a prefix outside [0, n] or a length outside
// [0, 2^32) panics with a placement: message instead of returning a
// table whose slots silently claim sector 0 or dying in makeslice.
func TestBadArgumentsPanic(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"Inverse(3, 10, 12)", func() { Inverse(3, 10, 12) }},
		{"Inverse(3, 10, -1)", func() { Inverse(3, 10, -1) }},
		{"Inverse(3, -1, 0)", func() { Inverse(3, -1, 0) }},
		{"Perm(1, -1)", func() { Perm(1, -1) }},
		{"Perm(1, MaxInt)", func() { Perm(1, math.MaxInt) }},
		{"Perm(1, 2^32)", func() { Perm(1, int(uint64(math.MaxUint32)+1)) }},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "placement: ") {
					t.Errorf("%s: panicked with %q, want a placement: message", tc.name, msg)
				}
			}()
			tc.call()
		}()
	}
}

// shuffles counts the shuffles of one goroutine, without emptying the
// memo, until the returned stop is called.
func shuffles() (stop func() int) {
	calls := 0
	observe = func(uint64, int) { calls++ }
	return func() int {
		observe = nil
		return calls
	}
}

// TestMemoKeepsAPrefixOfASeedsLoop: a seed's keys that together exceed
// the budget, asked for twice in one order, reshuffle on the second
// pass only the keys that did not fit. Least-recently-used eviction
// would reshuffle every one of them: each miss evicts the key the loop
// asks for next.
func TestMemoKeepsAPrefixOfASeedsLoop(t *testing.T) {
	const keys = 6
	n := budgetBytes / 4 * 2 / 7 // three fit the budget, four do not
	fit := budgetBytes / (4 * n)
	resetMemo()
	for pass := range 3 {
		stop := shuffles()
		for i := range keys {
			Perm(7, n-i)
		}
		got, want := stop(), keys-fit
		if pass == 0 {
			want = keys
		}
		if got != want {
			t.Errorf("pass %d over %d keys of which %d fit: %d shuffles, want %d", pass, keys, fit, got, want)
		}
	}
}

// TestMemoEvictsAnotherSeedFirst: a key evicts the entries of other
// seeds, least recently used first, before any entry of its own seed,
// even one used longer ago. Keys hold the seed the shuffle reads, so
// both seeds are odd.
func TestMemoEvictsAnotherSeedFirst(t *testing.T) {
	n := budgetBytes / 4 * 2 / 7 // three fit the budget
	resetMemo()
	own := []key{{seed: 3, n: n}, {seed: 3, n: n - 1}, {seed: 3, n: n - 2}}
	other := []key{{seed: 1, n: n}, {seed: 1, n: n - 1}}
	for _, k := range []key{own[0], other[0], other[1]} {
		Perm(k.seed, k.n)
	}
	resident := func() []key {
		mu.Lock()
		defer mu.Unlock()
		var ks []key
		for _, e := range lru {
			ks = append(ks, e.key)
		}
		return ks
	}
	for i, want := range [][]key{
		{own[0], other[1], own[1]},
		{own[0], own[1], own[2]},
	} {
		Perm(3, own[i+1].n)
		if got := resident(); !slices.Equal(got, want) {
			t.Fatalf("after %+v the memo holds %+v, want %+v", own[i+1], got, want)
		}
	}
}

// TestEvictedEntriesAreReleased: no slot of the memo's backing array
// past its length still holds an evicted entry, which would keep its
// permutation reachable. Dropping the front entry by reslicing did, and
// held serve-mixed's peak RSS about 27 MB higher.
func TestEvictedEntriesAreReleased(t *testing.T) {
	n := budgetBytes / 4 / 5
	resetMemo()
	for seed := uint64(0); seed < 6; seed++ {
		Perm(seed, n)
	}
	Perm(9, 3*n) // evicts three entries at once
	mu.Lock()
	defer mu.Unlock()
	for i, e := range lru[len(lru):cap(lru)] {
		if e != nil {
			t.Errorf("slot %d past the memo's %d entries holds the permutation of seed %d", len(lru)+i, len(lru), e.key.seed)
		}
	}
}
