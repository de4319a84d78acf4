package exp

import (
	"bytes"
	"reflect"
	"testing"

	"hybridmem/internal/config"
	"hybridmem/internal/memtypes"
	"hybridmem/internal/sim"
	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
)

// writeSyntheticTrace serializes a workload exactly as cmd/tracegen does:
// per-core workload streams, interleaved by cumulative instruction
// position, through a StreamWriter.
func writeSyntheticTrace(t *testing.T, wl workload.Spec, sys config.System, format trace.Format, compress bool) *bytes.Buffer {
	t.Helper()
	srcs := make([]trace.Source, config.Cores)
	for core := range srcs {
		srcs[core] = workload.NewStream(wl, core, sys.Scale, sys.InstrPerCore, sys.Seed)
	}
	var buf bytes.Buffer
	sw := trace.NewStreamWriter(&buf, format, compress)
	it := trace.NewInterleaver(srcs)
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
	return &buf
}

// TestTraceRoundTripDeterminism is the satellite round-trip proof: a
// tracegen-style export of a synthetic workload, replayed through the
// streaming reader, reproduces the direct synthetic run's Cycles, IPC
// and MPKI — in both trace formats, which must also agree with each
// other byte-for-byte on the full Result (the acceptance criterion's
// text-vs-binary identity).
func TestTraceRoundTripDeterminism(t *testing.T) {
	// One streaming high-MLP workload, one pointer-heavy low-MLP one.
	for _, name := range []string{"lbm", "omnetpp"} {
		wl, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		r := NewRunner()
		r.InstrPerCore = 40_000
		direct := r.Result(wl, "HYBRID2", 1)
		sys := r.system(1)

		var results []sim.Result
		for _, tc := range []struct {
			format   trace.Format
			compress bool
		}{
			{trace.FormatText, false},
			{trace.FormatBinary, false},
			{trace.FormatBinary, true},
		} {
			buf := writeSyntheticTrace(t, wl, sys, tc.format, tc.compress)
			rr := &Runner{Scale: r.Scale, InstrPerCore: r.InstrPerCore, Seed: r.Seed}
			res, err := rr.RunTrace(wl.Name, buf, "HYBRID2", 1, sim.MLPFor(wl))
			if err != nil {
				t.Fatalf("%s/%v: %v", name, tc.format, err)
			}
			if res.Cycles != direct.Cycles || res.IPC != direct.IPC || res.MPKI != direct.MPKI {
				t.Fatalf("%s/%v/gz=%v: replay cycles=%d IPC=%v MPKI=%v, direct cycles=%d IPC=%v MPKI=%v",
					name, tc.format, tc.compress, res.Cycles, res.IPC, res.MPKI,
					direct.Cycles, direct.IPC, direct.MPKI)
			}
			results = append(results, res)
		}
		for i := 1; i < len(results); i++ {
			if !reflect.DeepEqual(results[0], results[i]) {
				t.Fatalf("%s: encoding %d produced a different Result:\n%+v\nvs\n%+v",
					name, i, results[0], results[i])
			}
		}
	}
}

// TestRunTraceRejectsBadMLP pins MLP validation at the engine level:
// trace replay refuses a non-positive MLP instead of silently clamping
// it, and an MLP above MaxMLP before any per-core state is allocated
// (1<<30 would ask for 64 GB).
func TestRunTraceRejectsBadMLP(t *testing.T) {
	r := tiny()
	for _, mlp := range []int{0, -1, MaxMLP + 1, 1 << 30} {
		if _, err := r.RunTrace("t", bytes.NewReader([]byte("0 1 40 R\n")), "Baseline", 1, mlp); err == nil {
			t.Fatalf("mlp %d accepted", mlp)
		}
	}
	if _, err := r.RunTrace("t", bytes.NewReader([]byte("0 1 40 R\n")), "Baseline", 1, MaxMLP); err != nil {
		t.Fatalf("mlp %d (the bound) rejected: %v", MaxMLP, err)
	}
}

// TestRunTraceWindowSkew pins that a trace more skewed than the lookahead
// window fails with a diagnostic instead of buffering unboundedly.
func TestRunTraceWindowSkew(t *testing.T) {
	var buf bytes.Buffer
	sw := trace.NewStreamWriter(&buf, trace.FormatText, false)
	for i := 0; i < 64; i++ {
		sw.Append(7, trace.Record{Gap: 1, Addr: memtypes.Addr(64 * i)})
	}
	sw.Close()
	r := tiny()
	r.TraceWindow = 8
	if _, err := r.RunTrace("skewed", &buf, "Baseline", 1, 2); err == nil {
		t.Fatal("skewed trace accepted with an 8-record window")
	}
}
