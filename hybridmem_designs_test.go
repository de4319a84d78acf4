package hybridmem

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestAllDesignsListing pins the shape of the public registry view: every
// family of the paper appears, in kind-major paper order, with grammar
// and example agreeing with the engine's accepted names.
func TestAllDesignsListing(t *testing.T) {
	all := AllDesigns()
	if len(all) < 15 {
		t.Fatalf("AllDesigns lists only %d families", len(all))
	}
	byName := map[string]DesignInfo{}
	for _, d := range all {
		byName[d.Name] = d
	}
	for _, want := range []string{"Baseline", "MPOD", "CHA", "LGM", "TAGLESS", "DFC",
		"HYBRID2", "CAMEO", "POM", "SILC-FM", "ALLOY", "FOOTPRINT", "BANSHEE",
		"IDEAL", "H2ABL", "H2DSE"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("family %s missing from AllDesigns", want)
		}
	}
	if all[0].Name != "Baseline" || all[0].Kind != "baseline" || all[0].NeedsNM {
		t.Fatalf("first entry is %+v, want the baseline", all[0])
	}
	for _, d := range all {
		if err := ValidateDesign(d.Example); err != nil {
			t.Errorf("%s: example %q invalid: %v", d.Name, d.Example, err)
		}
		if len(d.Params) == 0 && d.Grammar != d.Name {
			t.Errorf("%s: grammar %q without parameters", d.Name, d.Grammar)
		}
	}
	h2dse := byName["H2DSE"]
	if len(h2dse.Params) != 3 || h2dse.Grammar != "H2DSE-<cacheMB>-<sectorKB>-<lineB>" {
		t.Fatalf("H2DSE introspection broken: %+v", h2dse)
	}
}

// TestReadmeDesignTableInSync pins the README's Designs table to the
// registry: every row `cmd/experiments -designs` would print (the row
// format here mirrors its printDesignTable) must appear verbatim in
// README.md. Regenerate the section with `go run ./cmd/experiments
// -designs` when this fails.
func TestReadmeDesignTableInSync(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range AllDesigns() {
		doc := d.Doc
		if len(d.Params) > 0 {
			doc += fmt.Sprintf(" (e.g. `%s`)", d.Example)
		}
		row := fmt.Sprintf("| `%s` | %s | %s |", d.Grammar, d.Kind, doc)
		if !strings.Contains(string(readme), row) {
			t.Errorf("README design table is stale; missing row:\n%s", row)
		}
	}
}

// TestValidateDesign pins parse-time validation through the public API.
func TestValidateDesign(t *testing.T) {
	for _, good := range []string{"Baseline", "HYBRID2", "DFC-512", "H2DSE-64-2-256"} {
		if err := ValidateDesign(good); err != nil {
			t.Errorf("ValidateDesign(%q): %v", good, err)
		}
	}
	for _, bad := range []string{"BOGUS", "DFC-0", "IDEAL--3", "H2DSE-0-0-0"} {
		if err := ValidateDesign(bad); err == nil {
			t.Errorf("ValidateDesign(%q) accepted", bad)
		}
	}
}

// TestRunRejectsMalformedParamsEarly pins that Run reports malformed
// parameters as parse errors.
func TestRunRejectsMalformedParamsEarly(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InstrPerCore = 1_000
	for _, bad := range []string{"DFC-0", "H2DSE-0-0-0", "H2ABL-bogus-9"} {
		if _, err := Run(bad, "lbm", cfg); err == nil {
			t.Errorf("Run(%q) accepted", bad)
		} else if !strings.Contains(err.Error(), "design:") {
			t.Errorf("Run(%q) error %q did not come from the parser", bad, err)
		}
	}
}

// TestRunAllRejectsMalformedDesignUpfront pins that RunAll validates the
// whole design list before launching any simulation.
func TestRunAllRejectsMalformedDesignUpfront(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InstrPerCore = 1_000
	_, err := RunAll(cfg, SweepOptions{
		Designs:   []string{"Baseline", "DFC-0"},
		Workloads: []string{"lbm"},
	})
	if err == nil {
		t.Fatal("RunAll accepted a malformed design")
	}
	if !strings.Contains(err.Error(), "design:") {
		t.Fatalf("error %q did not come from the parser", err)
	}
}

// TestReplayTraceEmptyTracePublic pins the empty-trace error through the
// public API.
func TestReplayTraceEmptyTracePublic(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := ReplayTrace("HYBRID2", "empty", strings.NewReader("  \n# nothing\n"), ReplayOptions{MLP: 2}, cfg); err == nil {
		t.Fatal("empty trace accepted")
	}
}
