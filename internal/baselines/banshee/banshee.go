// Package banshee implements Banshee (Yu, Hughes, Satish, Mutlu, Devadas,
// MICRO'17), the §2.1 design addressing DRAM caches' bandwidth imbalance:
// page-granularity caching tracked through the TLBs (no tag lookups, like
// Tagless) combined with a bandwidth-aware *frequency-based replacement*
// policy — pages are only cached when sampled access counters show their
// frequency exceeds the resident victim's by a threshold, so cache-fill
// bandwidth is spent only where it pays.
package banshee

import (
	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
)

// Config parameterizes Banshee.
type Config struct {
	NMBytes   uint64
	PageBytes int
	Assoc     int
	// SampleRate: one in SampleRate accesses updates frequency counters
	// (Banshee samples to bound counter-update bandwidth).
	SampleRate uint32
	// ReplaceThreshold: a candidate page replaces the victim only when
	// its sampled frequency exceeds the victim's by this margin.
	ReplaceThreshold uint8
}

// Default returns the standard Banshee configuration over all of NM.
func Default(nmBytes uint64) Config {
	return Config{NMBytes: nmBytes, PageBytes: 4096, Assoc: 4, SampleRate: 4, ReplaceThreshold: 2}
}

type entry struct {
	tag   uint64 // page +1; 0 invalid
	freq  uint8
	dirty bool
}

// Banshee implements memtypes.MemorySystem.
type Banshee struct {
	cfg     Config
	nm, fm  *memsys.Device
	entries []entry
	sets    int
	// candFreq tracks sampled frequencies of uncached pages (bounded).
	candFreq map[uint64]uint8
	tick     uint32
	stats    memtypes.MemStats
}

// New builds Banshee over the two devices.
func New(cfg Config, nm, fm *memsys.Device) *Banshee {
	sets := int(cfg.NMBytes) / (cfg.Assoc * cfg.PageBytes)
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("banshee: set count must be a positive power of two")
	}
	return &Banshee{
		cfg:      cfg,
		nm:       nm,
		fm:       fm,
		entries:  make([]entry, sets*cfg.Assoc),
		sets:     sets,
		candFreq: make(map[uint64]uint8, 4096),
	}
}

// Reset implements memtypes.Resetter: it invalidates every cached page
// and forgets the candidates' sampled frequencies.
func (b *Banshee) Reset(uint64) {
	clear(b.entries)
	clear(b.candFreq)
	b.tick = 0
	b.stats = memtypes.MemStats{}
}

// Name implements MemorySystem.
func (b *Banshee) Name() string { return "BANSHEE" }

// Stats implements MemorySystem.
func (b *Banshee) Stats() *memtypes.MemStats { return memsys.WithTraffic(&b.stats, b.nm, b.fm) }

func (b *Banshee) nmAddr(set, way int, off memtypes.Addr) memtypes.Addr {
	return memtypes.Addr((set*b.cfg.Assoc+way)*b.cfg.PageBytes) + off
}

// Access implements MemorySystem.
func (b *Banshee) Access(now memtypes.Tick, addr memtypes.Addr, write bool) memtypes.Tick {
	b.stats.Requests++
	b.tick++
	page := uint64(addr) / uint64(b.cfg.PageBytes)
	set := int(page % uint64(b.sets))
	off := memtypes.Addr(uint64(addr) % uint64(b.cfg.PageBytes))
	ways := b.entries[set*b.cfg.Assoc : (set+1)*b.cfg.Assoc]
	sampled := b.tick%b.cfg.SampleRate == 0

	minWay := 0
	for i := range ways {
		w := &ways[i]
		if w.tag == page+1 {
			if sampled && w.freq < 255 {
				w.freq++
			}
			b.stats.ServedNM++
			if write {
				w.dirty = true
			}
			return b.nm.Access(now, b.nmAddr(set, i, off), 64, write)
		}
		if ways[minWay].tag != 0 && (w.tag == 0 || w.freq < ways[minWay].freq) {
			minWay = i
		}
	}

	// Miss: always served from FM (no fill on the critical path).
	b.stats.ServedFM++
	done := b.fm.Access(now, memtypes.Addr(uint64(addr)), 64, write)

	// Frequency-based, bandwidth-aware replacement: only sampled misses
	// update candidate counters and can trigger a page fill.
	if sampled {
		if len(b.candFreq) >= 8192 {
			clear(b.candFreq)
		}
		f := b.candFreq[page]
		if f < 255 { // an 8-bit counter saturates
			f++
			b.candFreq[page] = f
		}
		// In int, not uint8, so that a victim near 255 does not wrap.
		if int(f) >= int(ways[minWay].freq)+int(b.cfg.ReplaceThreshold) {
			b.fill(now, set, minWay, page, write)
			delete(b.candFreq, page)
		}
	}
	return done
}

// fill replaces the victim with the candidate page: dirty victim pages
// write back whole, the new page streams in from FM — all in the
// background (Banshee fills off the critical path).
func (b *Banshee) fill(now memtypes.Tick, set, wayIdx int, page uint64, write bool) {
	w := &b.entries[set*b.cfg.Assoc+wayIdx]
	pb := b.cfg.PageBytes
	if w.tag != 0 && w.dirty {
		rd := b.nm.AccessBG(memtypes.Writeback, now, b.nmAddr(set, wayIdx, 0), pb, false)
		b.fm.AccessBG(memtypes.Writeback, rd, memtypes.Addr((w.tag-1)*uint64(pb)), pb, true)
		b.stats.Evictions++
	}
	rd := b.fm.AccessBG(memtypes.Fill, now, memtypes.Addr(page*uint64(pb)), pb, false)
	b.nm.AccessBG(memtypes.Fill, rd, b.nmAddr(set, wayIdx, 0), pb, true)
	b.stats.FetchedBytes += uint64(pb)
	b.stats.Migrations++
	*w = entry{tag: page + 1, freq: b.candFreq[page], dirty: write}
}

// Finish implements MemorySystem (no deferred work).
func (b *Banshee) Finish(memtypes.Tick) {}
