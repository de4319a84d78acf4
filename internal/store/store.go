// Package store is the tiered content-addressed result store shared by
// the experiment runner, the serve layer, the DSE searcher and the
// cluster execution plane. Every entry is addressed by a canonical
// SHA-256 fingerprint (see Fingerprint and RunKey) that folds in the
// engine and schema versions, so a change to either invalidates every
// stale entry by construction rather than by cleanup.
//
// A store has two tiers: a byte-bounded in-memory LRU (the serve
// layer's former result cache, generalized) over an optional on-disk
// content-addressed tier. Disk entries are written atomically and
// durably via internal/atomicfile, carry a checksum envelope so
// truncated or bit-flipped entries are detected, discarded and
// re-simulated — never served. Under a configurable byte bound the disk
// tier is garbage-collected least-recently-used through the same LRU
// type the memory tier is; unbounded, it keeps no per-entry state, only
// entry and byte counters (see Stats).
//
// Invalidation rule: any change to simulation semantics or to the
// layout of a persisted record must bump api.EngineVersion (wire-format
// changes bump api.SchemaVersion); both are folded into every key, so
// old entries simply stop being addressable. The store never needs a
// migration path.
package store

// Tier identifies which tier satisfied a Get.
type Tier int

const (
	// TierNone means the key was absent from every tier.
	TierNone Tier = iota
	// TierMem means the in-memory LRU held the entry.
	TierMem
	// TierDisk means the entry was read (and verified) from disk.
	TierDisk
)

func (t Tier) String() string {
	switch t {
	case TierMem:
		return "mem"
	case TierDisk:
		return "disk"
	}
	return "none"
}

// Options configures a Store. The zero value is a memory-only store
// with the default bounds.
type Options struct {
	// MemEntries bounds the memory tier's entry count; <= 0 means 1024.
	MemEntries int
	// MemBytes bounds the memory tier's payload bytes; <= 0 means 64 MB.
	MemBytes int64
	// Dir names the on-disk tier's directory, created if absent; empty
	// disables the disk tier entirely (the store is memory-only).
	Dir string
	// MaxBytes bounds the disk tier's total file bytes; <= 0 means
	// unbounded. Exceeding the bound garbage-collects least-recently
	// used entries.
	MaxBytes int64
}

// Store is a two-tier content-addressed result store. All methods are
// safe for concurrent use, and every method tolerates a nil receiver
// (reporting misses and dropping writes) so callers can thread an
// optional store without guarding each use.
type Store struct {
	mem  *LRU[[]byte]
	disk *diskTier
}

// Open creates a store, scanning an existing disk directory into the
// disk tier's counters, or into its recency order when the tier is
// bounded. Entries left by previous processes (or written concurrently
// by other processes sharing the directory) are served as disk hits;
// corrupt ones are discarded on first read.
func Open(o Options) (*Store, error) {
	if o.MemEntries <= 0 {
		o.MemEntries = 1024
	}
	if o.MemBytes <= 0 {
		o.MemBytes = 64 << 20
	}
	s := &Store{mem: NewLRU[[]byte](o.MemEntries, o.MemBytes, func(b []byte) int64 { return int64(len(b)) })}
	if o.Dir != "" {
		d, err := openDiskTier(o.Dir, o.MaxBytes)
		if err != nil {
			return nil, err
		}
		s.disk = d
	}
	return s, nil
}

// Get returns the entry for a key, reporting the tier that held it. A
// disk hit is promoted into the memory tier. Hit/miss counters on both
// tiers are updated.
func (s *Store) Get(key string) ([]byte, Tier, bool) {
	if s == nil {
		return nil, TierNone, false
	}
	if data, ok := s.mem.Get(key); ok {
		return data, TierMem, true
	}
	if data, ok := s.disk.get(key, true); ok {
		s.mem.Put(key, data)
		return data, TierDisk, true
	}
	return nil, TierNone, false
}

// Peek returns the entry for a key without recording hits or misses —
// the re-check a caller performs from inside a singleflight slot, where
// its miss was already counted. Disk hits are still promoted.
func (s *Store) Peek(key string) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	if data, ok := s.mem.Peek(key); ok {
		return data, true
	}
	if data, ok := s.disk.get(key, false); ok {
		s.mem.Put(key, data)
		return data, true
	}
	return nil, false
}

// Put stores an entry in both tiers and reports whether either kept
// it: false means the entry exceeds every tier's byte bound (or the
// disk write failed on a store whose memory tier refused it).
func (s *Store) Put(key string, data []byte) bool {
	if s == nil {
		return false
	}
	kept := s.mem.Put(key, data)
	return s.disk.put(key, data) || kept
}

// GetDisk reads a key from the disk tier only, bypassing the memory
// LRU. Callers that keep their own typed memo in front of the store
// (the experiment runner, the cluster coordinator) use these so raw
// record bytes don't compete with served documents for memory-tier
// space.
func (s *Store) GetDisk(key string) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	return s.disk.get(key, true)
}

// PutDisk writes a key to the disk tier only.
func (s *Store) PutDisk(key string, data []byte) {
	if s == nil {
		return
	}
	s.disk.put(key, data)
}

// HasDisk reports whether the store has a disk tier at all.
func (s *Store) HasDisk() bool { return s != nil && s.disk != nil }

// Stats is a point-in-time snapshot of both tiers' counters.
type Stats struct {
	MemHits      uint64
	MemMisses    uint64
	MemEvictions uint64
	MemEntries   int
	MemBytes     int64

	DiskHits      uint64
	DiskMisses    uint64
	DiskEvictions uint64 // entries deleted by the byte-bound GC
	DiskCorrupt   uint64 // entries discarded as truncated or bit-flipped
	// DiskEntries and DiskBytes are the files the disk tier holds. A
	// bounded tier tracks each file it has written or read; an unbounded
	// one counts the directory at Open plus the files this process
	// created, less the corrupt ones it discarded.
	DiskEntries int
	DiskBytes   int64
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	m := s.mem.Stats()
	st := Stats{
		MemHits:      m.Hits,
		MemMisses:    m.Misses,
		MemEvictions: m.Evictions,
		MemEntries:   m.Entries,
		MemBytes:     m.Bytes,
	}
	if s.disk != nil {
		s.disk.fill(&st)
	}
	return st
}
