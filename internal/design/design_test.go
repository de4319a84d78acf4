package design_test

import (
	"strings"
	"testing"

	"hybridmem/internal/config"
	"hybridmem/internal/design"
	_ "hybridmem/internal/design/all"
)

// TestEveryRegisteredExampleParses pins that the registry's own examples
// are valid names — the property every listing and smoke test relies on.
func TestEveryRegisteredExampleParses(t *testing.T) {
	infos := design.AllInfos()
	if len(infos) < 15 {
		t.Fatalf("registry has only %d designs", len(infos))
	}
	for _, info := range infos {
		spec, err := design.Parse(info.SampleName())
		if err != nil {
			t.Errorf("%s: example %q does not parse: %v", info.Name, info.SampleName(), err)
			continue
		}
		if spec.Info.Name != info.Name {
			t.Errorf("example %q resolved to %s, want %s", info.SampleName(), spec.Info.Name, info.Name)
		}
	}
}

// TestParseValidNames covers the grammar forms: exact names, hyphenated
// exact names, defaults for omitted optional parameters, and multi-field
// parameter lists.
func TestParseValidNames(t *testing.T) {
	cases := []struct {
		name, base string
	}{
		{"Baseline", "Baseline"},
		{"MPOD", "MPOD"},
		{"SILC-FM", "SILC-FM"},
		{"H2-CacheOnly", "H2-CacheOnly"},
		{"DFC", "DFC"},
		{"DFC-2048", "DFC"},
		{"IDEAL-64", "IDEAL"},
		{"H2ABL-ctr-9", "H2ABL"},
		{"H2ABL-free-250", "H2ABL"},
		{"H2DSE-64-2-256", "H2DSE"},
		{"H2DSE-128-4-64", "H2DSE"},
	}
	for _, c := range cases {
		spec, err := design.Parse(c.name)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.name, err)
			continue
		}
		if spec.Info.Name != c.base {
			t.Errorf("Parse(%q) resolved to %s, want %s", c.name, spec.Info.Name, c.base)
		}
	}
}

// TestParseFillsDefaults pins that "DFC" is "DFC-1024".
func TestParseFillsDefaults(t *testing.T) {
	spec, err := design.Parse("DFC")
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.Int("lineB"); got != 1024 {
		t.Fatalf("DFC default line = %d, want 1024", got)
	}
}

// TestParseRejectsMalformed is the satellite fix: malformed-but-parseable
// parameters fail at parse time with a design: error, never a panic or a
// runtime recovery.
func TestParseRejectsMalformed(t *testing.T) {
	bad := []string{
		"",                  // empty
		"BOGUS",             // unknown base
		"Baseline-1",        // parameters on a parameterless design
		"SILC-FM-3",         // parameters on a hyphenated exact name
		"H2-CacheOnly-2",    // parameters on an ablation variant
		"DFC-",              // empty field
		"DFC-0",             // below range
		"DFC-100",           // not a power of two
		"DFC--64",           // negative / double hyphen
		"DFC-64-64",         // too many fields
		"IDEAL",             // missing required parameter
		"IDEAL--3",          // negative line size
		"IDEAL-abc",         // non-integer
		"H2DSE-0-0-0",       // all below range
		"H2DSE-64-2",        // too few fields
		"H2DSE-64-2-100",    // line not a power of two
		"H2DSE-64-1-4096",   // line larger than sector
		"H2DSE-1024-64-64",  // more than 64 lines per sector
		"H2ABL-bogus-3",     // unknown knob
		"H2ABL-ctr-0",       // below range
		"H2ABL-ctr-40",      // counter too wide
		"H2ABL-assoc-3",     // associativity not a power of two
		"H2ABL-assoc-32",    // more ways than the XTA's tag store tracks
		"H2ABL-free-2000",   // more than 1000 per-mille
		"H2ABL-ctr",         // missing value
		"H2DSE-64-2-256-64", // trailing junk
	}
	for _, name := range bad {
		if _, err := design.Parse(name); err == nil {
			t.Errorf("Parse(%q) accepted a malformed name", name)
		} else if !strings.Contains(err.Error(), "design:") {
			t.Errorf("Parse(%q) error %q is not a design error", name, err)
		}
	}
}

// TestH2ABLAssocLimit pins that the XTA's 16-way limit is a parse error
// that names the limit, not a panic when the design is built.
func TestH2ABLAssocLimit(t *testing.T) {
	if _, err := design.Parse("H2ABL-assoc-16"); err != nil {
		t.Fatalf("Parse(H2ABL-assoc-16): %v", err)
	}
	_, err := design.Parse("H2ABL-assoc-32")
	if err == nil || !strings.Contains(err.Error(), "<= 16") {
		t.Fatalf("Parse(H2ABL-assoc-32) error %v, want one naming the 16-way limit", err)
	}
}

// TestNamesOrder pins the paper-ordered design lists the figures use.
func TestNamesOrder(t *testing.T) {
	wantMain := []string{"MPOD", "CHA", "LGM", "TAGLESS", "DFC", "HYBRID2"}
	if got := design.Names(design.KindMain); !equal(got, wantMain) {
		t.Fatalf("main designs %v, want %v", got, wantMain)
	}
	wantExtra := []string{"CAMEO", "POM", "SILC-FM", "ALLOY", "FOOTPRINT", "BANSHEE"}
	if got := design.Names(design.KindExtra); !equal(got, wantExtra) {
		t.Fatalf("extra designs %v, want %v", got, wantExtra)
	}
	if got := design.Names(design.KindBaseline); !equal(got, []string{"Baseline"}) {
		t.Fatalf("baseline designs %v", got)
	}
}

// TestNeedsNMFlag pins the registry flag that replaced the engine's
// Baseline special case.
func TestNeedsNMFlag(t *testing.T) {
	for _, info := range design.AllInfos() {
		want := info.Name != "Baseline"
		if info.NeedsNM != want {
			t.Errorf("%s: NeedsNM = %v, want %v", info.Name, info.NeedsNM, want)
		}
	}
}

// TestBuildConvertsPanics pins that a spec which parses but violates a
// system-size constraint surfaces as an error, not a panic: a 64 KB line
// parses (within the grammar cap) but exceeds the scaled NM set count.
func TestBuildConvertsPanics(t *testing.T) {
	spec, err := design.Parse("DFC-65536")
	if err != nil {
		t.Fatalf("DFC-65536 should parse: %v", err)
	}
	// At a huge scale divisor NM shrinks below one set of 64 KB lines.
	sys := config.Scaled(16384, 1)
	if _, _, _, err := spec.Build(sys); err == nil {
		t.Fatal("building an oversized line on a tiny system did not error")
	}
}

// TestBuildUnknownSpec pins the zero-Spec guard.
func TestBuildUnknownSpec(t *testing.T) {
	if _, _, _, err := (design.Spec{}).Build(config.Scaled(16, 1)); err == nil {
		t.Fatal("zero Spec built")
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
