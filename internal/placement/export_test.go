package placement

import "sync"

// Perm returns the memoized permutation of [0, n) at seed: perm[logical]
// is the physical slot of logical sector logical. It takes a reference
// it never releases, so the memo never recycles the slice while a test
// reads it; the garbage collector reclaims the entry once the memo has
// evicted it and the test has dropped the slice.
func Perm(seed uint64, n int) []uint32 { return perm(seed, n).v }

// Inverse returns the memoized inverse of Perm(seed, n) over the
// physical slots below k, holding a reference the way Perm does.
func Inverse(seed uint64, n, k int) []uint32 { return inverse(seed, n, k).v }

// resetMemo empties the memo, so a test starts from cold. Entries that
// tables still read are left to them.
func resetMemo() {
	mu.Lock()
	defer mu.Unlock()
	lru, bytes = nil, 0
}

// CountShuffles empties the memo and counts shuffles until the returned
// stop is called. stop reports the entries shuffled and the entries of
// the distinct (seed, n) placements among them; the two are equal when
// no placement was shuffled twice. Calls of CountShuffles must not
// overlap.
func CountShuffles() (stop func() (shuffled, distinct int)) {
	resetMemo()
	var (
		countMu            sync.Mutex
		shuffled, distinct int
		seen               = map[key]bool{}
	)
	observe = func(seed uint64, n int) {
		countMu.Lock()
		defer countMu.Unlock()
		shuffled += n
		if k := (key{seed: seed, n: n}); !seen[k] {
			seen[k] = true
			distinct += n
		}
	}
	return func() (int, int) {
		observe = nil
		countMu.Lock()
		defer countMu.Unlock()
		return shuffled, distinct
	}
}

// shuffled returns seed's permutation of [0, n), shuffled afresh.
func shuffled(seed uint64, n int) []uint32 {
	p := make([]uint32, n)
	shuffle(p, seed)
	return p
}
