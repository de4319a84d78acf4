// Package placement holds the seeded random permutation behind the
// paper's initial page placement (§4, "memory pages are allocated
// randomly"): every flat NM+FM design — Hybrid2 and the migration
// baselines — spreads its logical sectors over the physical slots
// through Perm and reads its remap tables through it.
//
// The permutation is a pure function of (seed|1, length), yet a
// Fisher-Yates shuffle over hundreds of thousands of sectors — a random
// memory access and a division per sector — costs more than a short
// run's whole simulation. Perm memoizes permutations under a byte
// budget, so designs that share a placement (design-space points that
// differ only in line size, the Hybrid2 ablations, the runs of one seed
// across designs) shuffle once, and callers that miss on one placement
// together wait for a single shuffle. A memoized permutation is the very
// slice the shuffle produced: keeping it costs no copy. Inverse memoizes
// the inverse permutation the same way, restricted to a prefix of the
// physical slots. Its callers want the owners of their near-memory
// slots only, which come first: migcommon.Space (MemPod, LGM) asks for
// its NMSectors slots and Hybrid2 for its flat NM slots. No caller asks
// for the owners of far-memory slots; a far-memory slot's occupant is
// read from the remap table.
//
// The budget does not hold every placement of a design-space search:
// its screening phase walks one seed's placements of many lengths in
// one order, and its full-fidelity phase comes back to them in the same
// order. On that loop least-recently-used eviction always drops the
// entry needed next. So a full memo evicts the entries of other seeds
// first, least recently used first, and otherwise the most recently
// used entry of another length: the search's first placements stay
// resident and the rest stream through one slot.
//
// A machine never copies a memoized table: it reads it through a Table,
// which keeps the entries the run wrote in a small hash overlay and
// reads every other entry from the shared slice. Building a machine
// costs no table memory, a run allocates for the entries it writes, and
// resetting one empties the overlay and keeps it for the next run. An
// overlay never grows past half the bytes of a dense copy: a run that
// writes that much switches its table to one private copy of the base.
package placement

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// budgetBytes bounds the memoized permutations and inverses.
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

// call is a miss being computed: callers of its key wait on done and
// then read v, which is nil if the computation panicked.
type call struct {
	done chan struct{}
	v    []uint32
}

var (
	mu       sync.Mutex
	lru      []entry // least recently used first
	bytes    int
	inflight = map[key]*call{}
)

// observe, when set, sees every shuffle; tests count shuffles with it.
var observe func(seed uint64, n int)

// Perm returns the seeded permutation of [0, n): perm[logical] is the
// physical slot of logical sector logical. n must lie in [0, 2^32). The
// slice is shared between callers and must not be modified.
func Perm(seed uint64, n int) []uint32 {
	checkLen(n)
	seed = shuffleSeed(seed)
	return memo(key{seed: seed, n: n}, func() []uint32 { return shuffle(seed, n) })
}

// shuffleSeed is the part of seed the shuffle reads: it starts its
// generator from seed|1, so seeds 2k and 2k+1 give one permutation, and
// the memo keys and evicts them as one seed.
func shuffleSeed(seed uint64) uint64 { return seed | 1 }

// Inverse returns the inverse of Perm(seed, n) over the physical slots
// below k (0 <= k <= n): inv[phys] is the logical sector at physical
// slot phys. Designs read the owners of their near-memory slots from it
// instead of scattering writes over the permutation. The slice is
// shared between callers and must not be modified.
func Inverse(seed uint64, n, k int) []uint32 {
	checkLen(n)
	if k < 0 || k > n {
		panic(fmt.Sprintf("placement: inverse prefix %d outside [0, %d]", k, n))
	}
	seed = shuffleSeed(seed)
	return memo(key{seed, n, k, true}, func() []uint32 {
		// One pass with no data-dependent branch: a slot at or past k
		// lands in the sentinel entry inv[k], which the returned slice
		// cannot reach.
		inv := make([]uint32, k+1)
		for logical, phys := range Perm(seed, n) {
			inv[min(int(phys), k)] = uint32(logical)
		}
		return inv[:k:k]
	})
}

// checkLen panics unless a permutation of n entries fits uint32 slots.
func checkLen(n int) {
	if n < 0 || uint64(n) > math.MaxUint32 {
		panic(fmt.Sprintf("placement: length %d outside [0, 2^32)", n))
	}
}

// memo returns the memoized value of k, computing it on a miss. The
// first caller to miss computes outside the lock, so parallel workers
// never serialize on a shuffle, and later callers of the same key wait
// for its result instead of shuffling again.
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
	if c, ok := inflight[k]; ok {
		mu.Unlock()
		<-c.done
		if c.v == nil { // the first caller panicked: fail the same way
			return memo(k, compute)
		}
		return c.v
	}
	c := &call{done: make(chan struct{})}
	inflight[k] = c
	mu.Unlock()
	defer func() {
		mu.Lock()
		delete(inflight, k)
		if c.v != nil {
			keep(k, c.v)
		}
		mu.Unlock()
		close(c.done)
	}()
	c.v = compute()
	return c.v
}

// keep memoizes v under k, evicting victims until it fits the budget;
// a value larger than the whole budget is not kept. The caller holds mu.
func keep(k key, v []uint32) {
	size := 4 * len(v)
	if size > budgetBytes {
		return
	}
	for bytes+size > budgetBytes {
		i := victim(k)
		bytes -= 4 * len(lru[i].v)
		lru = slices.Delete(lru, i, i+1) // zeroes the vacated slot
	}
	lru = append(lru, entry{k, v})
	bytes += size
}

// victim returns the position in lru of the entry to evict so that k
// can be kept. Entries of another seed go first, the least recently
// used first: they belong to a finished search or another request.
// When every entry has k's seed, the most recently used entry of
// another length goes. A search walks its placements in one order
// during screening and returns to them in the same order at full
// fidelity; under least-recently-used eviction that loop evicts the
// entry needed next every time, while this rule keeps the first
// placements resident and streams the rest through one slot. With no
// entry of another length either, the least recently used goes.
func victim(k key) int {
	for i, e := range lru {
		if e.key.seed != k.seed {
			return i
		}
	}
	for i := len(lru) - 1; i >= 0; i-- {
		if lru[i].key.n != k.n {
			return i
		}
	}
	return 0
}

// shuffle runs the seeded Fisher-Yates over [0, n).
func shuffle(seed uint64, n int) []uint32 {
	if observe != nil {
		observe(seed, n)
	}
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	rng := shuffleSeed(seed)
	for i := n - 1; i > 0; i-- {
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		j := int((rng * 0x2545F4914F6CDD1D) % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}
