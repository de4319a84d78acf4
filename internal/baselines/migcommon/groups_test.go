package migcommon

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// checkLayout fails unless Locate maps the logical units one-to-one
// onto the NM units and the FM units, with one NM unit per group, and
// the group invariants hold.
func checkLayout(t *testing.T, s *Groups, fmUnits uint32) {
	t.Helper()
	nmSeen := make([]bool, s.Count)
	fmSeen := make([]bool, fmUnits)
	for l := uint32(0); l < s.Units(); l++ {
		inNM, unit := s.Locate(l)
		seen := fmSeen
		if inNM {
			seen = nmSeen
			if g, _, _ := s.Member(l); unit != g {
				t.Fatalf("logical %d: in NM unit %d, not its group's %d", l, unit, g)
			}
		}
		if unit >= uint32(len(seen)) || seen[unit] {
			t.Fatalf("logical %d: unit %d (NM %v) out of range or taken twice", l, unit, inNM)
		}
		seen[unit] = true
	}
	if s.Units() != s.Count+fmUnits {
		t.Fatalf("%d logical units, want %d NM + %d FM", s.Units(), s.Count, fmUnits)
	}
	if !s.CheckInvariants() {
		t.Fatal("group invariants violated")
	}
}

// TestGroupsRandomSwapsKeepLayout drives random geometries with random
// swap sequences: Locate stays a bijection onto the NM and FM units,
// the invariants hold after every swap, the groups listed for Reset are
// exactly the swapped ones, each once, and Reset restores exactly a
// fresh layout with an empty list.
func TestGroupsRandomSwapsKeepLayout(t *testing.T) {
	prop := func(seed uint64, nmRaw, kRaw, pinRaw uint8, swaps uint16) bool {
		nm := uint32(nmRaw%48) + 1
		fm := nm*(uint32(kRaw%20)+1) + uint32(pinRaw)%nm
		s := NewGroups(nm, fm, seed)
		checkLayout(t, &s, fm)
		rng := rand.New(rand.NewSource(int64(seed)))
		swapped := map[uint32]bool{}
		for i := 0; i < int(swaps%400); i++ {
			l := uint32(rng.Intn(int(s.Units())))
			g, j, grouped := s.Member(l)
			if inNM, _ := s.Locate(l); inNM || !grouped {
				continue
			}
			_, fmUnit := s.Locate(l)
			occ := s.Occupant(g)
			if got := s.Swap(g, j); got != fmUnit {
				t.Fatalf("Swap returned FM unit %d, member was at %d", got, fmUnit)
			}
			if inNM, unit := s.Locate(occ*s.Count + g); inNM || unit != fmUnit {
				t.Fatalf("occupant %d of group %d at (%v, %d), want FM unit %d", occ, g, inNM, unit, fmUnit)
			}
			if s.Occupant(g) != j {
				t.Fatalf("group %d occupant %d after swapping in %d", g, s.Occupant(g), j)
			}
			swapped[g] = true
			checkLayout(t, &s, fm)
		}
		if uint32(len(s.moved)) > s.Count || len(s.moved) != len(swapped) {
			t.Fatalf("%d groups listed for Reset, %d swapped, %d in all", len(s.moved), len(swapped), s.Count)
		}
		for _, g := range s.moved {
			if !swapped[g] {
				t.Fatalf("group %d listed for Reset but never swapped", g)
			}
		}
		s.Reset(seed + 1<<20) // another seed's layout and permutation
		if len(s.moved) != 0 {
			t.Fatal("groups still listed after Reset")
		}
		got, want := s, NewGroups(nm, fm, seed+1<<20)
		got.moved = nil
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestGroupsListEachSwappedGroupOnce: swapping one group back and forth
// 10,000 times lists it for Reset once, so the reset state does not grow
// with the run.
func TestGroupsListEachSwappedGroupOnce(t *testing.T) {
	s := NewGroups(64, 256, 1)
	for i := range 10_000 {
		s.Swap(5, uint32(i%int(s.K))+1)
	}
	if len(s.moved) != 1 || s.moved[0] != 5 {
		t.Fatalf("listed %v after 10,000 swaps of group 5, want [5]", s.moved)
	}
	s.Reset(1)
	if len(s.moved) != 0 || !s.CheckInvariants() || s.Occupant(5) != 0 {
		t.Fatal("Reset left group 5 listed or out of its initial layout")
	}
}

// TestGroupsLogicalPermutes: Logical permutes the logical space, wraps
// raw units beyond it, and depends on the seed.
func TestGroupsLogicalPermutes(t *testing.T) {
	s := NewGroups(100, 850, 3)
	n := s.Units()
	seen := make([]bool, n)
	for raw := uint32(0); raw < n; raw++ {
		l := s.Logical(raw)
		if l >= n || seen[l] {
			t.Fatalf("Logical(%d) = %d: out of range or repeated", raw, l)
		}
		seen[l] = true
		if s.Logical(raw+n) != l {
			t.Fatalf("Logical(%d) does not wrap to Logical(%d)", raw+n, raw)
		}
	}
	other := NewGroups(100, 850, 4)
	same := 0
	for raw := uint32(0); raw < n; raw++ {
		if s.Logical(raw) == other.Logical(raw) {
			same++
		}
	}
	if same == int(n) {
		t.Fatal("the permutation ignores the seed")
	}
}

func TestGroupsGeometry(t *testing.T) {
	s := NewGroups(100, 850, 1)
	if s.Count != 100 || s.K != 8 || s.Pinned != 50 {
		t.Fatalf("geometry %d groups, K %d, %d pinned; want 100, 8, 50", s.Count, s.K, s.Pinned)
	}
	if _, _, grouped := s.Member(s.Units() - 1); grouped {
		t.Fatal("the last unit of the pinned remainder is grouped")
	}
	for _, bad := range [][2]uint32{{0, 8}, {1, 256}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGroups(%d, %d) did not panic", bad[0], bad[1])
				}
			}()
			NewGroups(bad[0], bad[1], 1)
		}()
	}
}

func TestGroupsSwapOfOccupantPanics(t *testing.T) {
	s := NewGroups(4, 16, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("swapping the NM occupant did not panic")
		}
	}()
	s.Swap(2, s.Occupant(2))
}

// TestGroupsCheckInvariantsDetectsCorruption: a duplicated slot or an
// occupant byte that disagrees with the slots fails the check.
func TestGroupsCheckInvariantsDetectsCorruption(t *testing.T) {
	s := NewGroups(4, 16, 1)
	s.slots[1*4+2] = s.slots[3*4+2] // group 2: members 1 and 3 in one FM unit
	if s.CheckInvariants() {
		t.Error("duplicate FM slot passed")
	}
	s = NewGroups(4, 16, 1)
	s.occupant[3] = 1
	if s.CheckInvariants() {
		t.Error("stale occupant passed")
	}
}
