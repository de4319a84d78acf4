// Package placement holds the seeded random permutation behind the
// paper's initial page placement (§4, "memory pages are allocated
// randomly"): every flat NM+FM design — Hybrid2 and the migration
// baselines — spreads its logical sectors over the physical slots
// through the permutation and reads its remap tables through it.
//
// The permutation is a pure function of (seed|1, length), yet a
// Fisher-Yates shuffle over hundreds of thousands of sectors — a random
// memory access and a division per sector — costs more than a short
// run's whole simulation. The package memoizes permutations under a
// byte budget, so designs that share a placement (design-space points
// that differ only in line size, the Hybrid2 ablations, the runs of one
// seed across designs) shuffle once, and callers that miss on one
// placement together wait for a single shuffle. A memoized permutation
// is the very slice the shuffle produced: keeping it costs no copy. The
// inverse permutation is memoized the same way, restricted to a prefix
// of the physical slots. Its callers want the owners of their
// near-memory slots only, which come first: migcommon.Space (MemPod,
// LGM) asks for its NMSectors slots and Hybrid2 for its flat NM slots.
// No caller asks for the owners of far-memory slots; a far-memory
// slot's occupant is read from the remap table.
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
//
// Memoized slices are counted: a Table holds a reference to the entry
// it reads, and CopyInverse holds one while it copies. Nothing else
// hands a memoized slice out, so an entry the memo evicts while no
// reference reads it is garbage, and a miss that evicts it to make room
// fills its buffer instead of allocating one when the lengths are
// close. A table reset to another seed (Table.Reset) releases its old
// placement and takes the new one. So in a process that serves one-off
// seeds, such as a server's cold requests, the placements of finished
// requests are shuffled over again in place, and no buffer is kept
// beyond the memo's budget and what live tables read. An entry evicted
// while a table reads it, and a table dropped without reset, are left
// to the garbage collector, which reclaims the entry with its last
// table.
package placement

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// budgetBytes bounds the buffers of the memoized permutations and
// inverses.
const budgetBytes = 16 << 20

type key struct {
	seed    uint64
	n       int
	k       int // the inverse's prefix length; 0 for the permutation
	inverse bool
}

// entry is a memoized permutation or inverse. v is the value, a prefix
// of buf, the buffer it was computed in.
type entry struct {
	key  key
	v    []uint32
	buf  []uint32
	refs int // tables and copies reading v
}

// call is a miss being computed: callers of its key wait on done and
// then read e, which is nil if the computation panicked. waiters counts
// them, so that e starts with a reference for each.
type call struct {
	done    chan struct{}
	e       *entry
	waiters int
}

var (
	mu       sync.Mutex
	lru      []*entry // least recently used first
	bytes    int      // 4*cap(buf) over lru and the misses computing
	inflight = map[key]*call{}
)

// observe, when set, sees every shuffle; tests count shuffles with it.
var observe func(seed uint64, n int)

// shuffleSeed is the part of seed the shuffle reads: it starts its
// generator from seed|1, so seeds 2k and 2k+1 give one permutation, and
// the memo keys and evicts them as one seed.
func shuffleSeed(seed uint64) uint64 { return seed | 1 }

// perm returns the entry of the seeded permutation of [0, n), holding a
// reference for the caller: perm[logical] is the physical slot of
// logical sector logical. n must lie in [0, 2^32).
func perm(seed uint64, n int) *entry {
	checkLen(n)
	seed = shuffleSeed(seed)
	return acquire(key{seed: seed, n: n}, n, func(buf []uint32) { shuffle(buf, seed) })
}

// inverse returns the entry of the inverse of perm(seed, n) over the
// physical slots below k (0 <= k <= n), holding a reference for the
// caller: inv[phys] is the logical sector at physical slot phys.
// Designs read the owners of their near-memory slots from it instead
// of scattering writes over the permutation.
func inverse(seed uint64, n, k int) *entry {
	checkLen(n)
	if k < 0 || k > n {
		panic(fmt.Sprintf("placement: inverse prefix %d outside [0, %d]", k, n))
	}
	seed = shuffleSeed(seed)
	return acquire(key{seed, n, k, true}, k+1, func(inv []uint32) {
		// One pass with no data-dependent branch: a slot at or past k
		// lands in the sentinel entry inv[k], past the value's end.
		p := perm(seed, n)
		defer release(p)
		for logical, phys := range p.v {
			inv[min(int(phys), k)] = uint32(logical)
		}
	})
}

// CopyInverse copies into dst the owners of the first len(dst) physical
// slots of seed's placement of n sectors: dst[phys] is the logical
// sector the permutation puts at slot phys. len(dst) must not exceed n.
func CopyInverse(dst []uint32, seed uint64, n int) {
	e := inverse(seed, n, len(dst))
	copy(dst, e.v)
	release(e)
}

// checkLen panics unless a permutation of n entries fits uint32 slots.
func checkLen(n int) {
	if n < 0 || uint64(n) > math.MaxUint32 {
		panic(fmt.Sprintf("placement: length %d outside [0, 2^32)", n))
	}
}

// acquire returns the memoized entry of k, computing it on a miss, with
// a reference held for the caller. A miss fills a buffer of size
// entries with fill, the first k.k entries being the value for an
// inverse and all of it otherwise. The buffer is one that making room
// for the entry frees (see room), or else a new one. The first caller
// to miss computes outside the lock, so parallel workers never
// serialize on a shuffle, and later callers of the same key wait for
// its result instead of shuffling again.
func acquire(k key, size int, fill func([]uint32)) *entry {
	mu.Lock()
	for i, e := range lru {
		if e.key == k {
			copy(lru[i:], lru[i+1:])
			lru[len(lru)-1] = e
			e.refs++
			mu.Unlock()
			return e
		}
	}
	if c, ok := inflight[k]; ok {
		c.waiters++
		mu.Unlock()
		<-c.done
		if c.e == nil { // the first caller panicked: fail the same way
			return acquire(k, size, fill)
		}
		return c.e
	}
	c := &call{done: make(chan struct{})}
	inflight[k] = c
	var buf []uint32
	kept := 4*size <= budgetBytes // a larger value is not memoized
	if kept {
		buf = room(k, size)
	}
	mu.Unlock()
	if buf == nil {
		buf = make([]uint32, size)
	}
	buf = buf[:size]
	defer func() {
		mu.Lock()
		delete(inflight, k)
		if c.e != nil {
			c.e.refs = 1 + c.waiters
			if kept {
				lru = append(lru, c.e)
			}
		} else if kept {
			bytes -= 4 * cap(buf) // the computation panicked
		}
		mu.Unlock()
		close(c.done)
	}()
	fill(buf)
	v := buf
	if k.inverse {
		v = buf[:k.k:k.k]
	}
	c.e = &entry{key: k, v: v, buf: buf}
	return c.e
}

// release drops a reference to e. The caller must not read e.v after.
func release(e *entry) {
	mu.Lock()
	e.refs--
	mu.Unlock()
}

// room makes room in the budget for the entry of k, of size entries,
// that a miss is about to compute, and counts its buffer; misses that
// overlap may overshoot the budget by what they compute. Entries are
// evicted in victim's order, except that an entry of another seed that
// no reference reads and whose buffer fits goes first: room returns its
// buffer for the miss to fill, or nil if the miss allocates. Evicting
// another entry instead would make room for a new buffer while that one
// became garbage. A buffer fits when its capacity lies in [size,
// 2*size]; rounding capacities up to fewer size classes would let more
// buffers fit more lengths, at the cost of memory every entry carries.
// The caller holds mu.
func room(k key, size int) []uint32 {
	var buf []uint32
	need := 4 * size
	for bytes+need > budgetBytes && len(lru) > 0 {
		i := -1
		if buf == nil {
			i = slices.IndexFunc(lru, func(e *entry) bool {
				return e.key.seed != k.seed && e.refs == 0 && cap(e.buf) >= size && cap(e.buf) <= 2*size
			})
		}
		if i >= 0 {
			buf = lru[i].buf
			need = 4 * cap(buf)
		} else {
			i = victim(k)
		}
		bytes -= 4 * cap(lru[i].buf)
		lru = slices.Delete(lru, i, i+1) // zeroes the vacated slot
	}
	bytes += need
	return buf
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

// shuffle fills perm with the seeded Fisher-Yates permutation of
// [0, len(perm)), whatever perm held before.
func shuffle(perm []uint32, seed uint64) {
	n := len(perm)
	if observe != nil {
		observe(seed, n)
	}
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
}
