package sim_test

// The output pin: the Result of every registered design's sample name on
// a fixed set of workloads must hash to the digest stored in testdata.
// Unlike the engine tests, which compare two loops built from the same
// cache and core models, this pins absolute simulated numbers, so a
// change to any per-record structure that moves a single counter fails
// here. Regenerate only for a change meant to move simulated numbers:
//
//	go test ./internal/sim -run TestResultDigests -update

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hybridmem/internal/config"
	"hybridmem/internal/design"
	"hybridmem/internal/sim"
	"hybridmem/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/result_digests.txt")

const digestFile = "testdata/result_digests.txt"

// resultDigests runs each design's sample name on lbm, mcf and xz and
// returns one "design workload sha256" line per run.
func resultDigests(t *testing.T) string {
	sys := config.Scaled(config.DefaultScale, 2)
	sys.InstrPerCore = 20_000
	sys.Seed = 7
	var b strings.Builder
	for _, info := range design.AllInfos() {
		name := info.SampleName()
		spec, err := design.Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, wl := range []string{"lbm", "mcf", "xz"} {
			wspec, ok := workload.ByName(wl)
			if !ok {
				t.Fatalf("no workload %s", wl)
			}
			ms, nm, fm, err := spec.Build(sys)
			if err != nil {
				t.Fatalf("build %s: %v", name, err)
			}
			js, err := json.Marshal(sim.Run(wspec, ms, nm, fm, sys))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(js)
			fmt.Fprintf(&b, "%s %s %s\n", name, wl, hex.EncodeToString(sum[:]))
		}
	}
	return b.String()
}

func TestResultDigests(t *testing.T) {
	got := resultDigests(t)
	if *update {
		if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	gotLines := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d runs, %d stored digests", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("digest moved:\n got  %s\n want %s", gotLines[i], wantLines[i])
		}
	}
}
