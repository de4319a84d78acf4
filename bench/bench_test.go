package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// notLayers are per-layer metrics that derive from several layers
// rather than name one, so no single span stands for them.
var notLayers = map[string]bool{"attr": true, "unattributed_frac": true, "tracing": true}

// TestSmoke runs every workload at smoke sizes, untraced and traced, and
// checks the result lines against BENCHMARK.json: every metric named
// there is emitted with its unit, nothing fails, every output check
// passes, and the traced run leaves a span for every layer.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for _, wl := range bf.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			if _, ok := lookup(wl.Name); !ok {
				t.Fatalf("workload %q is not implemented", wl.Name)
			}
			dir := t.TempDir()
			o := options{workload: wl.Name, seed: 3, sz: &smokeSizes, tmpRoot: dir, spans: filepath.Join(dir, "spans.json")}

			res, rep, err := run(context.Background(), o, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, rep)
			for _, m := range bf.EndToEnd {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
				}
			}

			o.trace = true
			res, rep, err = run(context.Background(), o, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, rep)
			raw, err := os.ReadFile(o.spans)
			if err != nil {
				t.Fatal(err)
			}
			var spans []span
			if err := json.Unmarshal(raw, &spans); err != nil {
				t.Fatal(err)
			}
			for _, m := range bf.PerLayer {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
				}
				layer, _, _ := strings.Cut(m.Name, ".")
				if notLayers[layer] {
					continue
				}
				found := false
				for _, s := range spans {
					if strings.HasPrefix(s.Name, layer+".") && s.End >= s.Start {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("no span for layer %s (metric %s)", layer, m.Name)
				}
			}
		})
	}
}

func checkResult(t *testing.T, res result, rep report) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("result: correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
	}
	for _, c := range rep.Checks {
		if !c.OK {
			t.Errorf("check %q failed: %s", c.Name, c.Detail)
		}
	}
}
