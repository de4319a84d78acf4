// Package placement holds the seeded random permutation behind the
// paper's initial page placement (§4, "memory pages are allocated
// randomly"): every flat NM+FM design — Hybrid2 and the migration
// baselines — spreads its logical sectors over the physical slots
// through Perm and reads its remap tables through it.
//
// The permutation is a pure function of (seed, length), yet a
// Fisher-Yates shuffle over hundreds of thousands of sectors — a random
// memory access and a division per sector — costs more than a short
// run's whole simulation. Perm memoizes recent permutations under a byte
// budget, so designs that share a placement (design-space points that
// differ only in line size, the Hybrid2 ablations, the runs of one seed
// across designs) shuffle once. A memoized permutation is the very
// slice the shuffle produced: keeping it costs no copy. Inverse memoizes
// the inverse permutation the same way, restricted to a prefix of the
// physical slots, so a design that needs the owners of its near-memory
// slots only keeps those.
//
// A machine never copies a memoized table: it reads it through a Table,
// a copy-on-write view that materializes a private page only when the
// run first writes into it. Building a machine costs the Table's page
// index, and resetting one costs the pages its run wrote.
package placement

import "sync"

// budgetBytes bounds the memoized permutations and inverses; the least
// recently used go first.
const budgetBytes = 16 << 20

type key struct {
	seed    uint64
	n       int
	k       int // Inverse's prefix length; 0 for the permutation
	inverse bool
}

type entry struct {
	key key
	v   []uint32
}

var (
	mu    sync.Mutex
	lru   []entry // least recently used first
	bytes int
)

// Perm returns the seeded permutation of [0, n): perm[logical] is the
// physical slot of logical sector logical. The slice is shared between
// callers and must not be modified.
func Perm(seed uint64, n int) []uint32 {
	return memo(key{seed: seed, n: n}, func() []uint32 { return shuffle(seed, n) })
}

// Inverse returns the inverse of Perm(seed, n) over the physical slots
// below k (0 <= k <= n): inv[phys] is the logical sector at physical
// slot phys. Designs restore their owner tables from it instead of
// scattering writes over the permutation. The slice is shared between
// callers and must not be modified.
func Inverse(seed uint64, n, k int) []uint32 {
	return memo(key{seed, n, k, true}, func() []uint32 {
		inv := make([]uint32, k)
		for logical, phys := range Perm(seed, n) {
			if int(phys) < k {
				inv[phys] = uint32(logical)
			}
		}
		return inv
	})
}

// memo returns the memoized value of k, computing it on a miss.
func memo(k key, compute func() []uint32) []uint32 {
	mu.Lock()
	for i, e := range lru {
		if e.key == k {
			copy(lru[i:], lru[i+1:])
			lru[len(lru)-1] = e
			mu.Unlock()
			return e.v
		}
	}
	mu.Unlock()

	// Computed outside the lock: concurrent misses may duplicate the
	// work, but parallel workers never serialize on a shuffle.
	v := compute()

	mu.Lock()
	defer mu.Unlock()
	size := 4 * len(v)
	if size > budgetBytes {
		return v
	}
	for bytes+size > budgetBytes {
		bytes -= 4 * len(lru[0].v)
		lru = lru[1:]
	}
	lru = append(lru, entry{k, v})
	bytes += size
	return v
}

// shuffle runs the seeded Fisher-Yates over [0, n).
func shuffle(seed uint64, n int) []uint32 {
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	rng := seed | 1
	for i := n - 1; i > 0; i-- {
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		j := int((rng * 0x2545F4914F6CDD1D) % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}
