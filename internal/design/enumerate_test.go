package design

import (
	"fmt"
	"strings"
	"testing"

	"hybridmem/internal/config"
	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
)

// enumOpts is the tight cap used by the enumeration property tests: small
// enough to keep the cross products fast, wide enough to exercise ladder
// subsampling on every grammar shape.
var enumOpts = EnumOptions{MaxPerParam: 5}

// TestEnumerateSpecsAllParse is the property test of the enumeration
// helper: every spec produced for every registered family must pass the
// registry's own validation — Parse accepts its name and resolves it to
// the same family with the same values.
func TestEnumerateSpecsAllParse(t *testing.T) {
	for _, info := range AllInfos() {
		specs, err := info.Enumerate(enumOpts)
		if err != nil {
			t.Fatalf("%s: Enumerate: %v", info.Name, err)
		}
		if len(specs) == 0 {
			t.Errorf("%s: enumeration is empty", info.Name)
		}
		seen := map[string]bool{}
		for _, s := range specs {
			if seen[s.Name] {
				t.Errorf("%s: duplicate enumerated spec %q", info.Name, s.Name)
			}
			seen[s.Name] = true
			parsed, err := Parse(s.Name)
			if err != nil {
				t.Errorf("%s: enumerated spec %q does not parse: %v", info.Name, s.Name, err)
				continue
			}
			if parsed.Info != info {
				t.Errorf("%q resolved to family %s, want %s", s.Name, parsed.Info.Name, info.Name)
			}
			for i := range s.Values {
				if parsed.Values[i] != s.Values[i] {
					t.Errorf("%q: value %d is %+v after Parse, want %+v", s.Name, i, parsed.Values[i], s.Values[i])
				}
			}
		}
	}
}

// TestNeighborsAllParse asserts the same validity property for
// neighborhood generation, and that neighbors stay inside the enumerated
// space (the search relies on this to keep its candidate set closed).
func TestNeighborsAllParse(t *testing.T) {
	for _, info := range AllInfos() {
		if len(info.Params) == 0 {
			continue
		}
		specs, err := info.Enumerate(enumOpts)
		if err != nil {
			t.Fatalf("%s: Enumerate: %v", info.Name, err)
		}
		space := map[string]bool{}
		for _, s := range specs {
			space[s.Name] = true
		}
		for _, probe := range []int{0, len(specs) / 2, len(specs) - 1} {
			if probe < 0 || probe >= len(specs) {
				continue
			}
			s := specs[probe]
			nbrs, err := info.Neighbors(s, enumOpts)
			if err != nil {
				t.Fatalf("%s: Neighbors(%q): %v", info.Name, s.Name, err)
			}
			for _, n := range nbrs {
				if n.Name == s.Name {
					t.Errorf("%s: Neighbors(%q) contains the spec itself", info.Name, s.Name)
				}
				if _, err := Parse(n.Name); err != nil {
					t.Errorf("%s: neighbor %q of %q does not parse: %v", info.Name, n.Name, s.Name, err)
				}
				if !space[n.Name] {
					t.Errorf("%s: neighbor %q of %q is outside the enumerated space", info.Name, n.Name, s.Name)
				}
			}
		}
	}
}

// TestNeighborsOffLadderBrackets pins the between-rungs case: a value
// the ladder skipped gets both bracketing rungs as neighbors.
func TestNeighborsOffLadderBrackets(t *testing.T) {
	info, ok := LookupInfo("H2DSE")
	if !ok {
		t.Skip("H2DSE not registered")
	}
	// cacheMB ladder at cap 5 is geometric from 1 to 1024; 100 sits
	// between two rungs whatever the stride.
	s, err := Parse("H2DSE-100-2-256")
	if err != nil {
		t.Fatal(err)
	}
	nbrs, err := info.Neighbors(s, enumOpts)
	if err != nil {
		t.Fatal(err)
	}
	var below, above bool
	for _, n := range nbrs {
		v := n.Int("cacheMB")
		if v < 100 {
			below = true
		}
		if v > 100 {
			above = true
		}
	}
	if !below || !above {
		t.Errorf("neighbors of off-ladder cacheMB=100 lack a bracketing rung (below=%v above=%v): %v", below, above, names(nbrs))
	}
}

// TestRegisterRejectsUnboundedParam asserts the infinite-space guard:
// an integer parameter without a finite range fails at registration,
// before any enumeration could attempt an infinite space.
func TestRegisterRejectsUnboundedParam(t *testing.T) {
	build := func(Spec, config.System, *memsys.Device, *memsys.Device) (memtypes.Resetter, error) {
		return nil, nil
	}
	for _, p := range []Param{
		{Name: "n", Doc: "unbounded above", Min: 1, Max: 0},
		{Name: "n", Doc: "negative bound", Min: -8, Max: -1},
		{Name: "n", Doc: "empty range", Min: 8, Max: 4},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("Register accepted %s [%d, %d]", p.Doc, p.Min, p.Max)
				}
				if !strings.Contains(fmt.Sprint(r), "<n>") {
					t.Fatalf("registration panic %q does not name the parameter", r)
				}
			}()
			Register(Info{Name: "UNBOUNDED-TEST", Example: "UNBOUNDED-TEST-1", Params: []Param{p}, Build: build})
		}()
	}
	if _, ok := LookupInfo("UNBOUNDED-TEST"); ok {
		t.Fatal("a rejected design was registered")
	}
}

// TestEnumerateParamless pins the degenerate case: a family without
// parameters enumerates to exactly its base name and has no neighbors.
func TestEnumerateParamless(t *testing.T) {
	info, ok := LookupInfo("HYBRID2")
	if !ok {
		t.Skip("HYBRID2 not registered")
	}
	specs, err := info.Enumerate(EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || specs[0].Name != "HYBRID2" {
		t.Fatalf("paramless enumeration = %v, want [HYBRID2]", names(specs))
	}
	nbrs, err := info.Neighbors(specs[0], EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(nbrs) != 0 {
		t.Fatalf("paramless family has neighbors: %v", names(nbrs))
	}
}

// TestLadders pins the subsampling shapes the search depends on.
func TestLadders(t *testing.T) {
	got := intLadder(1, 1024, 16)
	if got[0] != 1 || got[len(got)-1] != 1024 {
		t.Errorf("intLadder endpoints: %v", got)
	}
	if len(got) > 16 {
		t.Errorf("intLadder exceeded cap: %d values", len(got))
	}
	got = pow2Ladder(64, 4096, 3)
	if len(got) > 3 || got[0] != 64 || got[len(got)-1] != 4096 {
		t.Errorf("pow2Ladder(64, 4096, 3) = %v, want 3 values ending at 4096", got)
	}
	for _, v := range got {
		if v&(v-1) != 0 {
			t.Errorf("pow2Ladder produced non-power-of-two %d", v)
		}
	}
	if got := pow2Ladder(5000, 4096, 8); got != nil {
		t.Errorf("empty pow2 range produced %v", got)
	}
}

func names(specs []Spec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}
