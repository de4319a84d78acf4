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
	"sync"

	"hybridmem/internal/atomicfile"
)

// diskTier is the on-disk content-addressed tier: one file per key,
// written atomically and durably, verified by a checksum envelope on
// every read, and garbage-collected least-recently-used under a byte
// bound. Files are named <key>.json so the payloads (all wire or
// record JSON) stay directly inspectable.
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
// so readers only ever observe complete envelopes. The index is a GC
// accounting structure, not a source of truth; a read that misses the
// index still tries the file, so entries written by other processes are
// served (and adopted into the index) normally.
type diskTier struct {
	dir      string
	maxBytes int64

	mu        sync.Mutex
	index     map[string]*diskEntry
	seq       uint64 // logical recency clock; higher = more recently used
	bytes     int64
	hits      uint64
	misses    uint64
	evictions uint64
	corrupt   uint64
}

type diskEntry struct {
	size int64 // whole-file size, envelope included
	seq  uint64
}

const (
	diskMagic = "hmstore1"
	diskExt   = ".json"
)

func openDiskTier(dir string, maxBytes int64) (*diskTier, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	d := &diskTier{dir: dir, maxBytes: maxBytes, index: make(map[string]*diskEntry)}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	// Adopt existing entries oldest-first so the recency clock reflects
	// write order across restarts; validation is deferred to first read.
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
	sort.Slice(fs, func(i, j int) bool { return fs[i].mtime < fs[j].mtime })
	for _, f := range fs {
		d.seq++
		d.index[f.key] = &diskEntry{size: f.size, seq: d.seq}
		d.bytes += f.size
	}
	d.gcLocked("")
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
	raw, err := os.ReadFile(d.path(key))
	if err != nil {
		d.mu.Lock()
		if count {
			d.misses++
		}
		// The file is gone (GC by a sibling process, or never written):
		// drop any stale index entry so accounting tracks reality.
		if e, ok := d.index[key]; ok {
			d.bytes -= e.size
			delete(d.index, key)
		}
		d.mu.Unlock()
		return nil, false
	}
	payload, ok := decodeEnvelope(raw)
	d.mu.Lock()
	defer d.mu.Unlock()
	if !ok {
		// Truncated or bit-flipped: discard so the caller re-simulates,
		// and so the next reader doesn't pay the failed verify again.
		d.corrupt++
		if count {
			d.misses++
		}
		os.Remove(d.path(key))
		if e, ok := d.index[key]; ok {
			d.bytes -= e.size
			delete(d.index, key)
		}
		return nil, false
	}
	d.seq++
	if e, ok := d.index[key]; ok {
		e.seq = d.seq
	} else {
		// Written by another process sharing the directory: adopt it.
		d.index[key] = &diskEntry{size: int64(len(raw)), seq: d.seq}
		d.bytes += int64(len(raw))
	}
	if count {
		d.hits++
	}
	return payload, true
}

func (d *diskTier) put(key string, data []byte) {
	if d == nil {
		return
	}
	raw := encodeEnvelope(data)
	if d.maxBytes > 0 && int64(len(raw)) > d.maxBytes {
		return // can never be retained alongside anything else
	}
	if err := atomicfile.Write(d.path(key), raw); err != nil {
		return // disk full or unwritable: degrade to memory-only
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.seq++
	if e, ok := d.index[key]; ok {
		d.bytes += int64(len(raw)) - e.size
		e.size = int64(len(raw))
		e.seq = d.seq
	} else {
		d.index[key] = &diskEntry{size: int64(len(raw)), seq: d.seq}
		d.bytes += int64(len(raw))
	}
	d.gcLocked(key)
}

// gcLocked deletes least-recently-used entries until the byte bound
// holds, never evicting keep (the entry just written). Called with d.mu
// held.
func (d *diskTier) gcLocked(keep string) {
	if d.maxBytes <= 0 {
		return
	}
	for d.bytes > d.maxBytes {
		victim := ""
		var vseq uint64
		var ve *diskEntry
		for k, e := range d.index {
			if k == keep {
				continue
			}
			if victim == "" || e.seq < vseq {
				victim, vseq, ve = k, e.seq, e
			}
		}
		if victim == "" {
			return
		}
		os.Remove(d.path(victim))
		d.bytes -= ve.size
		delete(d.index, victim)
		d.evictions++
	}
}

type diskStats struct {
	hits      uint64
	misses    uint64
	evictions uint64
	corrupt   uint64
	entries   int
	bytes     int64
}

func (d *diskTier) stats() diskStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return diskStats{
		hits:      d.hits,
		misses:    d.misses,
		evictions: d.evictions,
		corrupt:   d.corrupt,
		entries:   len(d.index),
		bytes:     d.bytes,
	}
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
