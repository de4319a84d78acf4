package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"

	"hybridmem/internal/atomicfile"
)

// diskTier is the on-disk content-addressed tier: one file per key,
// written atomically and durably, verified by a checksum envelope on
// every read, and, under a byte bound, garbage-collected least-recently
// used. Files are named <key>.json so the payloads (all wire or record
// JSON) stay directly inspectable.
//
// The envelope is a single header line
//
//	hmstore1 <sha256 of payload, hex> <payload length>\n
//
// followed by the payload bytes. A truncated file fails the length
// check, a bit flip (in payload or header) fails the checksum or the
// header parse; either way the entry is deleted and reported as a miss,
// so a corrupt result is re-simulated, never served.
//
// Concurrent writers — goroutines of one process or several processes
// sharing the directory — are safe: every write is a whole-file rename,
// so readers only ever observe complete envelopes. The directory is the
// only source of truth; a read always tries the file, so entries
// written by other processes are served normally.
//
// Per-entry state exists only where the byte bound needs it. A bounded
// tier orders its files in lru, a store.LRU costing each file its size,
// whose eviction hook deletes the file: eviction is O(1), and a file
// another process wrote joins the order when first read. An unbounded
// tier keeps two counters instead, entries and bytes: the directory
// scan at open, plus each file this process creates, less each corrupt
// file it discards. They do not see files other processes add or
// remove, nor tell apart two same-key writes that overlap.
type diskTier struct {
	dir string
	lru *LRU[int64] // nil when unbounded

	entries atomic.Int64 // unbounded tier only
	bytes   atomic.Int64 // unbounded tier only
	hits    atomic.Uint64
	misses  atomic.Uint64
	corrupt atomic.Uint64
}

const (
	diskMagic = "hmstore1"
	diskExt   = ".json"
)

func openDiskTier(dir string, maxBytes int64) (*diskTier, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	d := &diskTier{dir: dir}
	if maxBytes > 0 {
		d.lru = NewLRU[int64](0, maxBytes, func(size int64) int64 { return size })
		d.lru.OnEvict = func(key string, _ int64) { os.Remove(d.path(key)) }
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	type found struct {
		key   string
		size  int64
		mtime int64
	}
	var fs []found
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, diskExt) {
			continue
		}
		key := strings.TrimSuffix(name, diskExt)
		if key == "" || strings.ContainsAny(key, "/\\.") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		fs = append(fs, found{key: key, size: info.Size(), mtime: info.ModTime().UnixNano()})
	}
	if d.lru == nil {
		d.entries.Store(int64(len(fs)))
		for _, f := range fs {
			d.bytes.Add(f.size)
		}
		return d, nil
	}
	// Adopt existing files oldest-first so recency reflects write order
	// across restarts, collecting down to the bound as they join;
	// validation is deferred to first read. A file larger than the whole
	// bound can never be retained.
	sort.Slice(fs, func(i, j int) bool { return fs[i].mtime < fs[j].mtime })
	for _, f := range fs {
		if f.size > maxBytes {
			os.Remove(d.path(f.key))
			continue
		}
		d.lru.Put(f.key, f.size)
	}
	return d, nil
}

func (d *diskTier) path(key string) string { return filepath.Join(d.dir, key+diskExt) }

// get reads and verifies an entry. count controls whether a hit or miss
// bumps the counters (a Peek from inside a singleflight slot does not);
// corruption discards are always counted.
func (d *diskTier) get(key string, count bool) ([]byte, bool) {
	if d == nil {
		return nil, false
	}
	path := d.path(key)
	raw, err := os.ReadFile(path)
	if err == nil {
		if payload, ok := decodeEnvelope(raw); ok {
			if d.lru != nil {
				d.lru.Put(key, int64(len(raw))) // a file another process wrote joins the order here
			}
			if count {
				d.hits.Add(1)
			}
			return payload, true
		}
		// Truncated or bit-flipped: discard so the caller re-simulates,
		// and so the next reader doesn't pay the failed verify again.
		d.corrupt.Add(1)
		if os.Remove(path) == nil && d.lru == nil {
			d.entries.Add(-1)
			d.bytes.Add(-int64(len(raw)))
		}
	}
	// The file is gone (collected by a sibling process, or never
	// written) or was corrupt: it leaves the recency order.
	if d.lru != nil {
		d.lru.Remove(key)
	}
	if count {
		d.misses.Add(1)
	}
	return nil, false
}

// put writes an entry's file and reports whether it did.
func (d *diskTier) put(key string, data []byte) bool {
	if d == nil {
		return false
	}
	raw := encodeEnvelope(data)
	size, path := int64(len(raw)), d.path(key)
	if d.lru != nil {
		// A file past the whole bound could never be kept beside another.
		if size > d.lru.maxBytes || atomicfile.Write(path, raw) != nil {
			return false
		}
		return d.lru.Put(key, size) // evicts (and deletes) older files past the bound
	}
	// Only the unbounded counters need to know whether the file existed.
	old, statErr := os.Lstat(path)
	if atomicfile.Write(path, raw) != nil {
		return false // disk full or unwritable: degrade to memory-only
	}
	if statErr != nil {
		d.entries.Add(1)
		d.bytes.Add(size)
	} else {
		d.bytes.Add(size - old.Size())
	}
	return true
}

// fill copies the tier's counters into st.
func (d *diskTier) fill(st *Stats) {
	st.DiskHits = d.hits.Load()
	st.DiskMisses = d.misses.Load()
	st.DiskCorrupt = d.corrupt.Load()
	if d.lru == nil {
		st.DiskEntries = int(d.entries.Load())
		st.DiskBytes = d.bytes.Load()
		return
	}
	l := d.lru.Stats()
	st.DiskEvictions, st.DiskEntries, st.DiskBytes = l.Evictions, l.Entries, l.Bytes
}

// envelopeHeader is the one canonical header line for payload.
func envelopeHeader(payload []byte) string {
	sum := sha256.Sum256(payload)
	return fmt.Sprintf("%s %s %d\n", diskMagic, hex.EncodeToString(sum[:]), len(payload))
}

func encodeEnvelope(payload []byte) []byte {
	header := envelopeHeader(payload)
	raw := make([]byte, 0, len(header)+len(payload))
	raw = append(raw, header...)
	raw = append(raw, payload...)
	return raw
}

// decodeEnvelope accepts exactly the bytes encodeEnvelope produces: the
// first line must be the canonical header for the rest of the file, so
// a wrong length or checksum, or any other spelling of a correct one,
// fails.
func decodeEnvelope(raw []byte) ([]byte, bool) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, false
	}
	payload := raw[nl+1:]
	if string(raw[:nl+1]) != envelopeHeader(payload) {
		return nil, false
	}
	return payload, true
}
