package trace

// The byte pin: traces written through Interleaver and StreamWriter from
// the built-in workload generators must hash to the digests stored in
// testdata, so a change to the interleaving, the encoders or the record
// sources that moves a single byte fails here. Regenerate only for a
// change meant to move trace bytes:
//
//	go test ./internal/trace -run TestTraceDigests -update

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hybridmem/internal/config"
	"hybridmem/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/trace_digests.txt")

const traceDigestFile = "testdata/trace_digests.txt"

// traceDigests captures lbm, mcf and xz at 20k instructions per core and
// seed 7 the way cmd/tracegen does, as text and as gzip-compressed
// binary, and returns one "workload format sha256" line per trace.
func traceDigests(t *testing.T) string {
	const instr, seed = 20_000, 7
	var b strings.Builder
	for _, wl := range []string{"lbm", "mcf", "xz"} {
		spec, ok := workload.ByName(wl)
		if !ok {
			t.Fatalf("no workload %s", wl)
		}
		for _, tc := range []struct {
			name     string
			format   Format
			compress bool
		}{
			{"text", FormatText, false},
			{"binary+gzip", FormatBinary, true},
		} {
			srcs := make([]Source, config.Cores)
			for c := range srcs {
				srcs[c] = workload.NewStream(spec, c, config.DefaultScale, instr, seed)
			}
			var buf bytes.Buffer
			sw := NewStreamWriter(&buf, tc.format, tc.compress)
			it := NewInterleaver(srcs)
			for {
				core, rec, ok := it.Next()
				if !ok {
					break
				}
				if err := sw.Append(core, rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := sw.Close(); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			fmt.Fprintf(&b, "%s %s %s\n", wl, tc.name, hex.EncodeToString(sum[:]))
		}
	}
	return b.String()
}

func TestTraceDigests(t *testing.T) {
	got := traceDigests(t)
	if *update {
		if err := os.MkdirAll(filepath.Dir(traceDigestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(traceDigestFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(traceDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	gotLines := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d traces, %d stored digests", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("digest moved:\n got  %s\n want %s", gotLines[i], wantLines[i])
		}
	}
}
