package migcommon

// Groups is a congruence-group space, the organisation of CAMEO and
// PoM/Chameleon: the Count NM units each head a group of K+1 members,
// exactly one of which lives in the group's NM unit while the other K
// fill distinct FM units. FM units beyond Count*K (the Pinned remainder)
// belong to no group and never move. A unit is whatever the design
// migrates: a 64 B line for CAMEO, a 2 KB segment for Chameleon.
//
// Logical unit l is member l/Count of group l%Count. Member j starts in
// NM if j is 0 and in FM unit g*K+(j-1) otherwise. Reset rewrites only
// the groups swapped since the last one, so no swap is logged and the
// reset state is at most one entry per group, however long the run.
type Groups struct {
	// Count, K and Pinned are fixed at construction: groups, FM members
	// per group, and FM units outside every group.
	Count, K, Pinned uint32

	// slots[l] locates grouped logical unit l: 0 is its group's NM unit,
	// v>0 FM unit g*K+(v-1). occupant[g] is the member in NM.
	slots    []uint8
	occupant []uint8

	// moved lists, once each, the groups swapped since construction or
	// the last Reset; listed holds a bit per group, set while it is on
	// moved.
	moved  []uint32
	listed []uint64

	// An affine map with odd multiplier is a bijection on [0, permPow2);
	// Logical walks its cycle until it lands inside the space.
	permPow2, permMul, permAdd uint32
}

// NewGroups splits nmUnits NM and fmUnits FM units into one group per
// NM unit, with K = fmUnits/nmUnits (at least 1) FM members each. seed
// picks the permutation Logical applies, which models the randomness of
// OS page allocation.
func NewGroups(nmUnits, fmUnits uint32, seed uint64) Groups {
	if nmUnits == 0 {
		panic("migcommon: congruence groups need NM units")
	}
	k := max(fmUnits/nmUnits, 1)
	if k > 255 {
		panic("migcommon: more than 255 FM members per congruence group")
	}
	s := Groups{
		Count:    nmUnits,
		K:        k,
		Pinned:   fmUnits - nmUnits*k,
		slots:    make([]uint8, uint64(nmUnits)*uint64(k+1)),
		occupant: make([]uint8, nmUnits),
		listed:   make([]uint64, (nmUnits+63)/64),
	}
	s.seedPerm(seed)
	for l := nmUnits; l < uint32(len(s.slots)); l++ {
		s.slots[l] = uint8(l / nmUnits)
	}
	s.permPow2 = 1
	for s.permPow2 < s.Units() {
		s.permPow2 <<= 1
	}
	return s
}

// seedPerm picks the affine permutation Logical applies for seed.
func (s *Groups) seedPerm(seed uint64) {
	s.permMul, s.permAdd = uint32(seed)*8+5, uint32(seed>>16)|1
}

// Units returns the size of the logical space.
func (s *Groups) Units() uint32 { return s.Count*(s.K+1) + s.Pinned }

// Logical maps a raw unit number (an address over the unit size) into
// the space, wrapping it first if it lies beyond, and permutes it.
func (s *Groups) Logical(raw uint32) uint32 {
	n := s.Units()
	if raw >= n {
		raw %= n
	}
	for {
		raw = (raw*s.permMul + s.permAdd) & (s.permPow2 - 1)
		if raw < n {
			return raw
		}
	}
}

// Member returns the group and member index of a logical unit; grouped
// is false for a pinned unit, which may still key a group-indexed table
// by g.
func (s *Groups) Member(logical uint32) (g, j uint32, grouped bool) {
	return logical % s.Count, logical / s.Count, int(logical) < len(s.slots)
}

// Locate returns where a logical unit lives: NM unit g of its group, or
// an FM unit.
func (s *Groups) Locate(logical uint32) (inNM bool, unit uint32) {
	if int(logical) >= len(s.slots) {
		// Pinned: FM unit Count*K + (logical - Count*(K+1)).
		return false, logical - s.Count
	}
	if v := s.slots[logical]; v != 0 {
		return false, logical%s.Count*s.K + uint32(v-1)
	}
	return true, logical % s.Count
}

// Occupant returns the member of group g that lives in NM.
func (s *Groups) Occupant(g uint32) uint32 { return uint32(s.occupant[g]) }

// Moved reports whether group g was swapped since construction or the
// last Reset.
func (s *Groups) Moved(g uint32) bool { return s.listed[g/64]&(1<<(g%64)) != 0 }

// Swap moves member j of group g, which must be in FM, into the group's
// NM unit, and the occupant into the FM unit j leaves, whose number it
// returns. The caller charges the data movement.
func (s *Groups) Swap(g, j uint32) (fmUnit uint32) {
	occ, v := s.occupant[g], s.slots[j*s.Count+g]
	if v == 0 {
		panic("migcommon: swap source already in NM")
	}
	if !s.Moved(g) {
		s.listed[g/64] |= 1 << (g % 64)
		s.moved = append(s.moved, g)
	}
	s.slots[uint32(occ)*s.Count+g] = v
	s.slots[j*s.Count+g] = 0
	s.occupant[g] = uint8(j)
	return g*s.K + uint32(v-1)
}

// Reset restores the layout NewGroups builds at seed: every group
// swapped since construction or the last Reset gets member j in slot j
// and member 0 in NM again, and Logical applies seed's permutation.
func (s *Groups) Reset(seed uint64) {
	s.seedPerm(seed)
	for _, g := range s.moved {
		for j := uint32(0); j <= s.K; j++ {
			s.slots[j*s.Count+g] = uint8(j)
		}
		s.occupant[g] = 0
		s.listed[g/64] = 0 // every group marked in the word is listed
	}
	s.moved = s.moved[:0]
}

// CheckInvariants verifies that each group's members occupy distinct
// slots, exactly one of them, the occupant, in NM; used by tests.
func (s *Groups) CheckInvariants() bool {
	seen := make([]bool, s.K+1)
	for g := uint32(0); g < s.Count; g++ {
		clear(seen)
		for l := int(g); l < len(s.slots); l += int(s.Count) {
			v := s.slots[l]
			if uint32(v) > s.K || seen[v] {
				return false
			}
			seen[v] = true
		}
		if s.slots[uint32(s.occupant[g])*s.Count+g] != 0 {
			return false
		}
	}
	return true
}
