package cluster

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"hybridmem/internal/api"
	"hybridmem/internal/exp"
	"hybridmem/internal/store"
	"hybridmem/internal/workload"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// recordingTransport executes shards through inner and records every
// run it was sent.
type recordingTransport struct {
	inner transport
	mu    sync.Mutex
	runs  []Run
}

func (r *recordingTransport) runShard(ctx context.Context, req ShardRequest) (ShardResponse, error) {
	r.mu.Lock()
	r.runs = append(r.runs, req.Runs...)
	r.mu.Unlock()
	return r.inner.runShard(ctx, req)
}

// TestWarmStoreServesRunsWithoutDispatch pins the coordinator side of
// the result store: a batch leaves exactly one record per run — the
// record exp.Runner keys by store.RunKey — and an identical later batch
// is served from those records, across a coordinator restart, without
// any dispatch at all. The warm coordinator has no runners, so anything
// dispatched would run on its local fallback and show in
// ShardsDispatched, which must stay 0.
func TestWarmStoreServesRunsWithoutDispatch(t *testing.T) {
	dir := t.TempDir()
	cfg, runs := testConfig(), testRuns()

	st1 := openStore(t, dir)
	c1 := NewCoordinator(CoordinatorOptions{ShardSize: 2, Store: st1})
	c1.AttachLoopback(2, 1)
	outs1, err := c1.Run(context.Background(), cfg, runs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := c1.Stats().RunsWarm; got != 0 {
		t.Fatalf("cold batch settled %d warm runs, want 0", got)
	}
	if got := st1.Stats().DiskEntries; got != len(runs) {
		t.Fatalf("cold batch left %d disk entries, want one per run (%d)", got, len(runs))
	}

	// A fresh coordinator over a fresh store handle on the same
	// directory: every run is warm, nothing is dispatched, and the
	// merged document is byte-identical.
	c2 := NewCoordinator(CoordinatorOptions{ShardSize: 2, Store: openStore(t, dir)})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var progressed bool
	outs2, err := c2.Run(ctx, cfg, runs, func(done, total int) {
		progressed = true
		if done != len(runs) || total != len(runs) {
			t.Errorf("warm progress (%d, %d), want (%d, %d)", done, total, len(runs), len(runs))
		}
	})
	if err != nil {
		t.Fatalf("warm batch: %v", err)
	}
	if !progressed {
		t.Error("warm batch reported no progress")
	}
	if !bytes.Equal(outcomeSweepBytes(t, outs2), outcomeSweepBytes(t, outs1)) {
		t.Fatal("warm batch document differs from cold")
	}
	st := c2.Stats()
	if st.ShardsDispatched != 0 {
		t.Fatalf("warm batch dispatched %d shards, want 0", st.ShardsDispatched)
	}
	if st.RunsWarm != uint64(len(runs)) {
		t.Fatalf("RunsWarm = %d, want %d", st.RunsWarm, len(runs))
	}
}

// TestWarmStoreDispatchesOnlyColdRuns extends a previously-run batch
// with new runs: every earlier run is served from the store and only
// the new runs are dispatched, however the extension re-cuts shards —
// the warm re-dispatch that makes recovery after node loss cheap.
func TestWarmStoreDispatchesOnlyColdRuns(t *testing.T) {
	dir := t.TempDir()
	cfg, runs := testConfig(), testRuns()

	c1 := NewCoordinator(CoordinatorOptions{ShardSize: 2, Store: openStore(t, dir)})
	c1.AttachLoopback(2, 1)
	if _, err := c1.Run(context.Background(), cfg, runs, nil); err != nil {
		t.Fatal(err)
	}

	added := []Run{
		{Design: "HYBRID2", Workload: "namd", Ratio16: 1},
		{Design: "HYBRID2", Workload: "xz", Ratio16: 1},
	}
	extended := append(append([]Run(nil), runs...), added...)
	c2 := NewCoordinator(CoordinatorOptions{ShardSize: 2, Store: openStore(t, dir)})
	rec := &recordingTransport{inner: Exec{Parallelism: 1}}
	c2.join(&runnerHandle{id: "recording", addr: "loopback", transport: rec, loopback: true})
	outs, err := c2.Run(context.Background(), cfg, extended, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(extended) {
		t.Fatalf("got %d outcomes, want %d", len(outs), len(extended))
	}
	if want := localSweepBytes(t, cfg, extended); !bytes.Equal(outcomeSweepBytes(t, outs), want) {
		t.Fatal("extended batch document differs from a local sweep")
	}
	if st := c2.Stats(); st.RunsWarm != uint64(len(runs)) {
		t.Fatalf("RunsWarm = %d, want %d", st.RunsWarm, len(runs))
	}
	if len(rec.runs) != len(added) || rec.runs[0] != added[0] || rec.runs[1] != added[1] {
		t.Fatalf("dispatched runs %v, want exactly the new runs %v", rec.runs, added)
	}

	// A different seed is different work: nothing may come back warm.
	cold := cfg
	cold.Seed = 7
	c3 := NewCoordinator(CoordinatorOptions{ShardSize: 2, Store: openStore(t, dir)})
	c3.AttachLoopback(1, 1)
	if _, err := c3.Run(context.Background(), cold, runs[:2], nil); err != nil {
		t.Fatal(err)
	}
	if got := c3.Stats().RunsWarm; got != 0 {
		t.Fatalf("seed change still settled %d warm runs", got)
	}
}

// TestWarmStoreSettlesLocalRuns: the coordinator and exp.Runner address
// one set of records, so runs a local runner persisted settle a
// clustered batch. The coordinator has no runners: anything dispatched
// would run on its local fallback and show in ShardsDispatched, which
// must stay 0.
func TestWarmStoreSettlesLocalRuns(t *testing.T) {
	dir := t.TempDir()
	cfg, runs := testConfig(), testRuns()[:4]
	r := &exp.Runner{Scale: cfg.Scale, InstrPerCore: cfg.InstrPerCore, Seed: cfg.Seed, Store: openStore(t, dir)}
	specs := make([]exp.RunSpec, len(runs))
	for i, run := range runs {
		wl, _ := workload.ByName(run.Workload)
		specs[i] = exp.RunSpec{Workload: wl, Design: run.Design, Ratio16: run.Ratio16}
	}
	local, err := r.ResultsParallel(specs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := api.Encode(api.NewSweep(local))
	if err != nil {
		t.Fatal(err)
	}

	c := NewCoordinator(CoordinatorOptions{ShardSize: 2, Store: openStore(t, dir)})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	outs, err := c.Run(ctx, cfg, runs, nil)
	if err != nil {
		t.Fatalf("batch over locally persisted runs: %v", err)
	}
	if !bytes.Equal(outcomeSweepBytes(t, outs), want) {
		t.Fatal("batch settled from local records differs from the local sweep")
	}
	if st := c.Stats(); st.RunsWarm != uint64(len(runs)) || st.ShardsDispatched != 0 {
		t.Fatalf("RunsWarm = %d, ShardsDispatched = %d; want %d and 0", st.RunsWarm, st.ShardsDispatched, len(runs))
	}
}
