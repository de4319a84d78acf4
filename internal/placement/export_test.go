package placement

import "sync"

// resetMemo empties the memo, so a test starts from cold.
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
