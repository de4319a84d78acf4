package workload

import (
	"testing"
	"testing/quick"

	"hybridmem/internal/memtypes"
)

// byClass returns the workloads of one MPKI class.
func byClass(c Class) []Spec {
	var out []Spec
	for _, s := range specs {
		if s.Class == c {
			out = append(out, s)
		}
	}
	return out
}

func TestThirtySpecsTenPerClass(t *testing.T) {
	all := Specs()
	if len(all) != 30 {
		t.Fatalf("got %d specs, want 30", len(all))
	}
	for _, c := range []Class{High, Medium, Low} {
		if n := len(byClass(c)); n != 10 {
			t.Fatalf("class %v has %d workloads, want 10", c, n)
		}
	}
}

func TestSpecsGroupedByClass(t *testing.T) {
	// Table 2 groups workloads High, then Medium, then Low.
	all := Specs()
	for i := 1; i < len(all); i++ {
		if all[i].Class < all[i-1].Class {
			t.Fatalf("spec %s out of class order", all[i].Name)
		}
	}
}

func TestByName(t *testing.T) {
	s, ok := ByName("mcf")
	if !ok || s.Name != "mcf" || s.Class != High {
		t.Fatalf("ByName(mcf) = %+v, %v", s, ok)
	}
	if _, ok := ByName("nosuch"); ok {
		t.Fatal("found nonexistent workload")
	}
}

func TestStreamDeterminism(t *testing.T) {
	spec, _ := ByName("gcc")
	a := NewStream(spec, 3, 16, 100000, 42)
	b := NewStream(spec, 3, 16, 100000, 42)
	for i := 0; i < 5000; i++ {
		g1, a1, w1, ok1 := a.next()
		g2, a2, w2, ok2 := b.next()
		if g1 != g2 || a1 != a2 || w1 != w2 || ok1 != ok2 {
			t.Fatalf("divergence at record %d", i)
		}
		if !ok1 {
			break
		}
	}
}

func TestStreamDifferentCoresDiffer(t *testing.T) {
	spec, _ := ByName("gcc")
	a := NewStream(spec, 0, 16, 100000, 42)
	b := NewStream(spec, 1, 16, 100000, 42)
	same := 0
	for i := 0; i < 1000; i++ {
		_, a1, _, _ := a.next()
		_, a2, _, _ := b.next()
		if a1 == a2 {
			same++
		}
	}
	if same > 900 {
		t.Fatalf("streams for different cores nearly identical (%d/1000)", same)
	}
}

func TestAddressesWithinRegion(t *testing.T) {
	f := func(seed uint64, coreRaw uint8) bool {
		core := int(coreRaw % 8)
		spec, _ := ByName("lbm")
		s := NewStream(spec, core, 16, 50000, seed)
		base, size := s.regionBase, s.Footprint()
		for {
			_, addr, _, ok := s.next()
			if !ok {
				return true
			}
			if addr < base || uint64(addr)+64 > uint64(base)+size {
				return false
			}
			if uint64(addr)%64 != 0 {
				return false
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMPRegionsDisjoint(t *testing.T) {
	spec, _ := ByName("lbm")
	var regions [8][2]uint64
	for c := 0; c < 8; c++ {
		s := NewStream(spec, c, 16, 1000, 1)
		regions[c] = [2]uint64{uint64(s.regionBase), uint64(s.regionBase) + s.Footprint()}
	}
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			if regions[i][0] < regions[j][1] && regions[j][0] < regions[i][1] {
				t.Fatalf("MP regions %d and %d overlap: %v %v", i, j, regions[i], regions[j])
			}
		}
	}
}

func TestMTRegionsShared(t *testing.T) {
	spec, _ := ByName("cg.D")
	a := NewStream(spec, 0, 16, 1000, 1)
	b := NewStream(spec, 7, 16, 1000, 1)
	if a.regionBase != b.regionBase || a.Footprint() != b.Footprint() {
		t.Fatal("MT cores should share one region")
	}
}

func TestInstructionBudgetRespected(t *testing.T) {
	spec, _ := ByName("namd")
	const budget = 200000
	s := NewStream(spec, 0, 16, budget, 7)
	var instr uint64
	for {
		gap, _, _, ok := s.next()
		if !ok {
			break
		}
		instr += gap + 1
	}
	// The stream may overshoot by at most one record's gap.
	if instr < budget/2 || instr > budget+2*s.gapBase+2 {
		t.Fatalf("instructions consumed %d, budget %d", instr, budget)
	}
}

func TestAccessIntensityMatchesAPKI(t *testing.T) {
	spec, _ := ByName("lbm") // APKI 35
	s := NewStream(spec, 0, 16, 2_000_000, 3)
	var instr, accesses uint64
	for {
		gap, _, _, ok := s.next()
		if !ok {
			break
		}
		instr += gap + 1
		accesses++
	}
	apki := float64(accesses) / float64(instr) * 1000
	if apki < spec.APKI*0.7 || apki > spec.APKI*1.3 {
		t.Fatalf("measured APKI %.1f, spec %.1f", apki, spec.APKI)
	}
}

func TestSpatialLocalityOrdering(t *testing.T) {
	// lbm (SeqRun 28) must show far more sequential successors than
	// omnetpp (SeqRun 1.2).
	seqFrac := func(name string) float64 {
		spec, _ := ByName(name)
		s := NewStream(spec, 0, 16, 1_000_000, 9)
		var prev memtypes.Addr
		var seq, n int
		for {
			_, addr, _, ok := s.next()
			if !ok {
				break
			}
			if n > 0 && addr == prev+64 {
				seq++
			}
			prev = addr
			n++
		}
		return float64(seq) / float64(n)
	}
	lbm, omn := seqFrac("lbm"), seqFrac("omnetpp")
	if lbm < 0.9 || omn > 0.85 || lbm <= omn {
		t.Fatalf("lbm seq frac %.2f not clearly above omnetpp %.2f", lbm, omn)
	}
}

func TestWriteFractionApproximate(t *testing.T) {
	spec, _ := ByName("lbm") // WriteFrac 0.45
	s := NewStream(spec, 0, 16, 2_000_000, 5)
	var writes, n int
	for {
		_, _, w, ok := s.next()
		if !ok {
			break
		}
		if w {
			writes++
		}
		n++
	}
	frac := float64(writes) / float64(n)
	if frac < 0.35 || frac > 0.55 {
		t.Fatalf("write fraction %.2f, want ~0.45", frac)
	}
}
