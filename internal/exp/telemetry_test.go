package exp

import (
	"context"
	"strings"
	"sync"
	"testing"

	"hybridmem/internal/api"
	"hybridmem/internal/sim"
	"hybridmem/internal/telemetry"
	"hybridmem/internal/workload"
)

func telemetryRunner() *Runner {
	r := NewRunner()
	r.Scale = 16
	r.InstrPerCore = 20_000
	return r
}

// sampledResult runs one ResultErr with telemetry switched on for the
// call (keeping any window knobs already set) and returns the series
// delivered through OnSeries.
func sampledResult(r *Runner, wl workload.Spec, designName string) (sim.Result, *telemetry.Series, error) {
	saved := r.Telemetry
	defer func() { r.Telemetry = saved }()
	var opts TelemetryOptions
	if saved != nil {
		opts = *saved
	}
	var ser *telemetry.Series
	opts.OnSeries = func(_ int, s *telemetry.Series) { ser = s }
	r.Telemetry = &opts
	res, err := r.ResultErr(wl, designName, 1)
	return res, ser, err
}

// TestResultSeriesMatchesMemoPath pins passivity at the runner layer:
// the headline Result of a sampled run must be byte-identical (as an
// encoded api document) to the memoized/stored path's result.
func TestResultSeriesMatchesMemoPath(t *testing.T) {
	r := telemetryRunner()
	wl, _ := workload.ByName("lbm")
	want, err := r.ResultErr(wl, "HYBRID2", 1)
	if err != nil {
		t.Fatal(err)
	}
	got, ser, err := sampledResult(r, wl, "HYBRID2")
	if err != nil {
		t.Fatal(err)
	}
	wantDoc, _ := api.Encode(api.NewRun(want))
	gotDoc, _ := api.Encode(api.NewRun(got))
	if string(wantDoc) != string(gotDoc) {
		t.Errorf("sampled run document differs from memo path:\n%s\nvs\n%s", gotDoc, wantDoc)
	}
	if ser == nil || len(ser.Epochs) == 0 {
		t.Fatal("sampled run returned no series")
	}
	// And again with the memo already warm — the sampled path must not
	// read (or be confused by) the memoized entry.
	got2, ser2, err := sampledResult(r, wl, "HYBRID2")
	if err != nil {
		t.Fatal(err)
	}
	if got2 != got || ser2 == nil || len(ser2.Epochs) != len(ser.Epochs) {
		t.Error("repeated sampled run diverged")
	}
}

// TestResultSeriesDeterministicDocument: the encoded series document
// of a repeated run is byte-identical.
func TestResultSeriesDeterministicDocument(t *testing.T) {
	r := telemetryRunner()
	r.Telemetry = &TelemetryOptions{WindowInstr: 8192, MaxEpochs: 64}
	wl, _ := workload.ByName("mcf")
	run := func() []byte {
		res, ser, err := sampledResult(r, wl, "HYBRID2")
		if err != nil {
			t.Fatal(err)
		}
		doc, err := api.Encode(api.NewRunSeries(res, ser))
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatal("repeated sampled run produced different series documents")
	}
	if !strings.Contains(string(a), `"series_schema": 2`) {
		t.Fatal("series document missing series_schema")
	}
}

// TestResultsParallelSeries: a parallel sampled sweep delivers one
// series per spec, streams epochs tagged with the right run index, and
// its results match the plain parallel path.
func TestResultsParallelSeries(t *testing.T) {
	r := telemetryRunner()
	specs, err := SweepSpecsByName([]string{"Baseline", "HYBRID2"}, []string{"lbm", "mcf"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := r.ResultsParallel(specs)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	seen := map[int]int{}
	series := make([]*telemetry.Series, len(specs))
	r2 := telemetryRunner()
	r2.Telemetry = &TelemetryOptions{
		WindowInstr: 8192,
		OnEpoch: func(run int, e telemetry.Epoch) {
			mu.Lock()
			seen[run]++
			mu.Unlock()
		},
		OnSeries: func(run int, ser *telemetry.Series) {
			mu.Lock()
			series[run] = ser
			mu.Unlock()
		},
	}
	got, err := r2.ResultsParallelProgress(context.Background(), specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if got[i] != want[i] {
			t.Errorf("run %d result diverges under sampling", i)
		}
		if series[i] == nil || len(series[i].Epochs) == 0 {
			t.Errorf("run %d has no series", i)
		}
		if seen[i] == 0 {
			t.Errorf("run %d streamed no epochs", i)
		}
		if series[i] != nil && seen[i] != series[i].EpochsTotal {
			t.Errorf("run %d streamed %d epochs, series has %d", i, seen[i], series[i].EpochsTotal)
		}
	}
}

// TestResultSeriesBadDesign: parse errors surface without panicking
// and with no series.
func TestResultSeriesBadDesign(t *testing.T) {
	r := telemetryRunner()
	wl, _ := workload.ByName("lbm")
	if _, ser, err := sampledResult(r, wl, "NOSUCH"); err == nil || ser != nil {
		t.Fatalf("bad design: err=%v series=%v", err, ser)
	}
}

// TestRunTraceSampled: trace replay with Telemetry set reports the
// unsampled result and delivers the run's series.
func TestRunTraceSampled(t *testing.T) {
	const traceText = "0 10 1000 R\n0 5 1040 W\n1 3 2000 R\n"
	want, err := tiny().RunTrace("t", strings.NewReader(traceText), "HYBRID2", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	var ser *telemetry.Series
	r := tiny()
	r.Telemetry = &TelemetryOptions{OnSeries: func(_ int, s *telemetry.Series) { ser = s }}
	got, err := r.RunTrace("t", strings.NewReader(traceText), "HYBRID2", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("sampled replay diverges:\n got %+v\nwant %+v", got, want)
	}
	if ser == nil || ser.EpochsTotal != 1 {
		t.Fatalf("sampled replay series = %+v, want one closing epoch", ser)
	}
}
