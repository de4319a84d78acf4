package cachesim

// Differential test of Sets against a stamp-LRU store: per-way stamps, a
// fill takes the first invalid way, else the lowest-indexed way with the
// minimum stamp. That is the rule the XTA, Footprint and SILC-FM used
// before they moved onto Sets, so the two must agree on every operation.

import (
	"math/rand"
	"reflect"
	"testing"
)

// stampSets is the reference store.
type stampSets struct {
	tags  []uint64 // key, with Dirty as in Sets; 0 = invalid
	lru   []uint64
	assoc int
	clock uint64
}

func newStampSets(sets, assoc int) *stampSets {
	return &stampSets{tags: make([]uint64, sets*assoc), lru: make([]uint64, sets*assoc), assoc: assoc}
}

func (s *stampSets) reset() {
	clear(s.tags)
	clear(s.lru)
	s.clock = 0
}

func (s *stampSets) lookup(set int, key uint64) (int, bool) {
	base := set * s.assoc
	for w := range s.assoc {
		if s.tags[base+w] != 0 && s.tags[base+w]&^Dirty == key {
			s.clock++
			s.lru[base+w] = s.clock
			return w, true
		}
	}
	return 0, false
}

func (s *stampSets) fill(set int, key uint64) (int, uint64) {
	base := set * s.assoc
	victim := -1
	for w := range s.assoc {
		if s.tags[base+w] == 0 {
			victim = w
			break
		}
		if victim < 0 || s.lru[base+w] < s.lru[base+victim] {
			victim = w
		}
	}
	old := s.tags[base+victim]
	s.clock++
	s.tags[base+victim], s.lru[base+victim] = key, s.clock
	return victim, old
}

// setsStream names a key stream and draws its next (set, key) pair.
type setsStream struct {
	name string
	next func(rng *rand.Rand, n, sets, assoc int) (int, uint64)
}

var setsStreams = []setsStream{
	// Uniform sets and keys over 1x to 8x the capacity, keys far above
	// the low bits as the LLC's tags are.
	{"random", func(rng *rand.Rand, n, sets, assoc int) (int, uint64) {
		span := uint64(assoc << (n % 4))
		return rng.Intn(sets), 1<<40 + rng.Uint64()%span
	}},
	// Two sets cycled through assoc+1 keys, LRU's worst case, with one
	// access in eight to a random key of the same sets.
	{"conflict-storm", func(rng *rand.Rand, n, sets, assoc int) (int, uint64) {
		if rng.Intn(8) == 0 {
			return rng.Intn(2), 1 + uint64(rng.Intn(4*assoc))
		}
		return n % 2, 1 + uint64(n/2%(assoc+1))
	}},
}

// TestSetsMatchesStampModel runs each stream through Access on both
// stores, and once more as SILC-FM uses the store: a Lookup, and on a
// miss a Fill for a random half only, so a key is often looked up and
// missed without ever being filled. A random third of the hit or
// filled ways are marked dirty. After every operation the returned way,
// hit and displaced word and the whole touched set must agree, Dirty
// flags included. Halfway through, both stores reset, and Sets must
// then equal a freshly built store.
func TestSetsMatchesStampModel(t *testing.T) {
	const sets, perRun = 16, 20_000
	rng := rand.New(rand.NewSource(3))
	for _, assoc := range []int{1, 2, 4, 8, 16} {
		for _, st := range setsStreams {
			for _, lookupOnly := range []bool{false, true} {
				got, want := NewSets(sets, assoc), newStampSets(sets, assoc)
				for n := range perRun {
					if n == perRun/2 {
						got.Reset()
						want.reset()
						if !reflect.DeepEqual(got, NewSets(sets, assoc)) {
							t.Fatalf("assoc %d %s: Reset left %+v", assoc, st.name, got)
						}
					}
					set, key := st.next(rng, n, sets, assoc)
					var gw, ww int
					var gold, wold uint64
					var ghit, whit bool
					if lookupOnly {
						gw, ghit = got.Lookup(set, key)
						ww, whit = want.lookup(set, key)
						if !ghit && rng.Intn(2) == 0 {
							gw, gold = got.Fill(set, key)
							ww, wold = want.fill(set, key)
						} else if !ghit {
							gw, ww = -1, -1 // a miss that fills nothing
						}
					} else {
						gw, gold, ghit = got.Access(set, key)
						if ww, whit = want.lookup(set, key); !whit {
							ww, wold = want.fill(set, key)
						}
					}
					if gw != ww || gold != wold || ghit != whit {
						t.Fatalf("assoc %d %s lookup-only %v op %d (set %d key %#x): way %d old %#x hit %v, want %d %#x %v",
							assoc, st.name, lookupOnly, n, set, key, gw, gold, ghit, ww, wold, whit)
					}
					if gw >= 0 && rng.Intn(3) == 0 {
						got.MarkDirty(set, gw)
						want.tags[set*assoc+ww] |= Dirty
					}
					for w := range assoc {
						if g, x := got.Tag(set, w), want.tags[set*assoc+w]; g != x {
							t.Fatalf("assoc %d %s lookup-only %v op %d: set %d way %d holds %#x, want %#x",
								assoc, st.name, lookupOnly, n, set, w, g, x)
						}
					}
				}
			}
		}
	}
}

// TestSetsDirtySurvivesHits pins that Dirty rides along with a key: hits
// neither match on it nor clear it, and the fill that displaces the way
// returns it in the old word.
func TestSetsDirtySurvivesHits(t *testing.T) {
	s := NewSets(1, 2)
	w, _, _ := s.Access(0, 7)
	s.MarkDirty(0, w)
	for range 3 {
		if hw, _, hit := s.Access(0, 7); !hit || hw != w {
			t.Fatalf("dirty key 7 missed or moved: way %d hit %v", hw, hit)
		}
		if lw, hit := s.Lookup(0, 7); !hit || lw != w || s.Tag(0, w) != 7|Dirty {
			t.Fatalf("Lookup of dirty key 7: way %d hit %v tag %#x", lw, hit, s.Tag(0, w))
		}
	}
	s.Access(0, 8) // fills the invalid way; 7 is now the LRU way
	if fw, old, hit := s.Access(0, 9); hit || fw != w || old != 7|Dirty {
		t.Fatalf("fill displaced way %d word %#x (hit %v), want way %d word %#x", fw, old, hit, w, uint64(7|Dirty))
	}
	if s.Tag(0, w) != 9 {
		t.Fatalf("fill kept a flag: tag %#x", s.Tag(0, w))
	}
}

// TestNewSetsRejectsBadGeometry pins the geometry NewSets refuses.
func TestNewSetsRejectsBadGeometry(t *testing.T) {
	for _, g := range [][2]int{{0, 4}, {4, 0}, {4, MaxAssoc + 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSets(%d, %d) did not panic", g[0], g[1])
				}
			}()
			NewSets(g[0], g[1])
		}()
	}
}
