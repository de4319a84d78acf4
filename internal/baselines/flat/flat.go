// Package flat provides the normalization baseline of the paper's
// evaluation: a system without 3D-stacked DRAM where every request is
// served by the far memory, plus an all-NM reference useful as an upper
// bound in examples and tests.
package flat

import (
	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
)

// FMOnly is the baseline without near memory.
type FMOnly struct {
	fm    *memsys.Device
	stats memtypes.MemStats
}

// NewFMOnly builds the baseline over the far-memory device.
func NewFMOnly(fm *memsys.Device) *FMOnly {
	return &FMOnly{fm: fm}
}

// Name implements MemorySystem.
func (f *FMOnly) Name() string { return "Baseline" }

// Access serves every request from FM.
func (f *FMOnly) Access(now memtypes.Tick, addr memtypes.Addr, write bool) memtypes.Tick {
	f.stats.Requests++
	f.stats.ServedFM++
	return f.fm.Access(now, addr, memtypes.CPULineBytes, write)
}

// Finish implements MemorySystem (no deferred work).
func (f *FMOnly) Finish(memtypes.Tick) {}

// Reset implements memtypes.Resetter.
func (f *FMOnly) Reset(uint64) { f.stats = memtypes.MemStats{} }

// Stats implements MemorySystem.
func (f *FMOnly) Stats() *memtypes.MemStats { return memsys.WithTraffic(&f.stats, nil, f.fm) }

// NMOnly serves everything from near memory: an optimistic reference for
// examples and sanity tests (not part of the paper's figures).
type NMOnly struct {
	nm    *memsys.Device
	stats memtypes.MemStats
}

// NewNMOnly builds the all-NM reference.
func NewNMOnly(nm *memsys.Device) *NMOnly { return &NMOnly{nm: nm} }

// Name implements MemorySystem.
func (f *NMOnly) Name() string { return "AllNM" }

// Access serves every request from NM.
func (f *NMOnly) Access(now memtypes.Tick, addr memtypes.Addr, write bool) memtypes.Tick {
	f.stats.Requests++
	f.stats.ServedNM++
	return f.nm.Access(now, addr, memtypes.CPULineBytes, write)
}

// Finish implements MemorySystem (no deferred work).
func (f *NMOnly) Finish(memtypes.Tick) {}

// Reset implements memtypes.Resetter.
func (f *NMOnly) Reset(uint64) { f.stats = memtypes.MemStats{} }

// Stats implements MemorySystem.
func (f *NMOnly) Stats() *memtypes.MemStats { return memsys.WithTraffic(&f.stats, f.nm, nil) }
