// Free-space awareness: the extension sketched in §3.8 of the paper.
// Chameleon showed that the OS does not always use all of memory and that
// a migration mechanism can exploit unused space to avoid swaps. Hybrid2
// can support the same through ISA-Alloc/ISA-Free style hints: the remap
// structures mark unused sectors, and the NM allocator (Fig. 8) skips the
// NM-to-FM copy when the displaced sector holds no live data.
//
// This file implements that extension. It is off by default (the paper
// evaluates the base design); Config.FreeSectors hints a suffix of the
// logical space free for the whole run.

package core

// sectorUnused reports whether a logical sector is hinted free.
func (h *Hybrid2) sectorUnused(logical uint32) bool { return logical >= h.freeFrom }
