package migcommon

// Differential test of the remap cache, a cachesim.Sets, against the
// stamp model it replaced. Both choose the same victim way, so their tag
// arrays must stay identical access by access.

import (
	"math/rand"
	"slices"
	"testing"

	"hybridmem/internal/config"
)

// stampRemapCache is the stamp-based remap cache the packed one replaced,
// kept as the reference model: victim = first invalid way, else the
// lowest-indexed least-recently-used one.
type stampRemapCache struct {
	tags    []uint64
	lru     []uint64
	setMask uint32
	assoc   int
	clock   uint64
}

func newStampRemapCache(entries, assoc int) *stampRemapCache {
	return &stampRemapCache{
		tags:    make([]uint64, entries),
		lru:     make([]uint64, entries),
		setMask: uint32(entries/assoc - 1),
		assoc:   assoc,
	}
}

func (r *stampRemapCache) Reset() {
	clear(r.tags)
	clear(r.lru)
	r.clock = 0
}

func (r *stampRemapCache) Lookup(logical uint32) bool {
	r.clock++
	base := int(logical&r.setMask) * r.assoc
	victim := base
	key := uint64(logical) + 1
	for i := base; i < base+r.assoc; i++ {
		if r.tags[i] == key {
			r.lru[i] = r.clock
			return true
		}
		if r.tags[victim] == 0 {
			continue
		}
		if r.tags[i] == 0 || r.lru[i] < r.lru[victim] {
			victim = i
		}
	}
	r.tags[victim] = key
	r.lru[victim] = r.clock
	return false
}

// TestRemapCacheMatchesStampModel drives both models with over a million
// random lookups over key ranges from 1x to 64x the capacity, resetting
// both halfway through every run, and compares each result and the
// touched set's ways.
func TestRemapCacheMatchesStampModel(t *testing.T) {
	const sets, perRun = 32, 30_000
	rng := rand.New(rand.NewSource(1))
	for _, assoc := range []int{1, 2, 4, 8, 16} {
		for f := 1; f <= 64; f *= 2 {
			got := NewRemapCache(sets*assoc, assoc)
			want := newStampRemapCache(sets*assoc, assoc)
			keys := uint32(f * sets * assoc)
			for n := 0; n < perRun; n++ {
				if n == perRun/2 {
					got.Reset()
					want.Reset()
				}
				key := rng.Uint32() % keys
				if g, w := got.Lookup(key), want.Lookup(key); g != w {
					t.Fatalf("assoc %d keys %dx lookup %d (%d): hit %v, want %v", assoc, f, n, key, g, w)
				}
				set := int(key % sets)
				g := make([]uint64, assoc)
				for w := range g {
					g[w] = got.sets.Tag(set, w)
				}
				if w := want.tags[set*assoc : (set+1)*assoc]; !slices.Equal(g, w) {
					t.Fatalf("assoc %d keys %dx lookup %d: set holds %v, want %v", assoc, f, n, g, w)
				}
			}
		}
	}
}

// BenchmarkRemapCacheLookup times the migration baselines' remap cache at
// scale 16 (the XTA-equivalent entry count, 16-way) on uniform keys over
// 4x its capacity.
func BenchmarkRemapCacheLookup(b *testing.B) {
	sys := config.Scaled(config.DefaultScale, 2)
	entries := int(sys.Hybrid2CacheBytes() / config.SectorBytes)
	r := NewRemapCache(entries, 16)
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint32, 1<<16)
	for i := range keys {
		keys[i] = uint32(rng.Intn(4 * entries))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Lookup(keys[i&(len(keys)-1)])
	}
}
