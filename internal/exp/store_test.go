package exp

import (
	"testing"

	"hybridmem/internal/obs"
	"hybridmem/internal/store"
)

// TestMemoBoundedEvicts pins the satellite fix: the memo cache is
// bounded (a long-lived server used to grow it without limit), evicted
// runs are recomputed with identical results, and with a store attached
// the recomputation is a disk hit, not a simulation.
func TestMemoBoundedEvicts(t *testing.T) {
	var sims obs.Counter
	st, err := store.Open(store.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	r := tiny()
	r.MemoEntries = 2
	r.Store = st
	r.SimCounter = &sims
	wl := r.Workloads()[0]

	designs := []string{"Baseline", "HYBRID2", "DFC"}
	first := make(map[string]uint64)
	for _, d := range designs {
		first[d] = uint64(r.Result(wl, d, 1).Cycles)
	}
	ms := r.MemoStats()
	if ms.Entries > 2 {
		t.Fatalf("memo holds %d entries, bound 2", ms.Entries)
	}
	if ms.Evictions == 0 {
		t.Fatal("no evictions despite exceeding the memo bound")
	}
	simsAfterSweep := sims.Value()
	if simsAfterSweep != uint64(len(designs)) {
		t.Fatalf("sim counter = %d after %d distinct runs", simsAfterSweep, len(designs))
	}

	// The evicted run re-resolves — through the store's disk tier, not
	// the engine — with an identical result.
	if got := uint64(r.Result(wl, designs[0], 1).Cycles); got != first[designs[0]] {
		t.Fatalf("re-resolved run differs: %d cycles, first saw %d", got, first[designs[0]])
	}
	if sims.Value() != simsAfterSweep {
		t.Fatalf("re-resolving an evicted run simulated again (%d sims)", sims.Value())
	}
	if st.Stats().DiskHits == 0 {
		t.Fatal("evicted run was not served from the disk tier")
	}
}

// TestRunKeyAddressesPersistedRecord: RunKey is the key a run's record
// is persisted under, ratio normalization included — a design without
// near memory keys every ratio as ratio 1 — and Recall decodes exactly
// the result the run returned.
func TestRunKeyAddressesPersistedRecord(t *testing.T) {
	st, err := store.Open(store.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	r := tiny()
	r.Store = st
	wl := r.Workloads()[0]
	res := r.Result(wl, "Baseline", 4)
	key, err := r.RunKey("Baseline", wl.Name, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := store.RunKey("Baseline", wl.Name, 1, r.Scale, r.InstrPerCore, r.Seed, r.Prefetch); key != want {
		t.Fatalf("RunKey = %s, want the ratio-1 key %s", key, want)
	}
	if got, ok := r.Recall(key); !ok || got != res {
		t.Fatalf("Recall(%s) = %+v, %v; want the run's result", key, got, ok)
	}
	if _, err := r.RunKey("no-such-design", wl.Name, 1); err == nil {
		t.Fatal("RunKey accepted a malformed design name")
	}
}

// TestStoreSharedAcrossRunners pins the tentpole property end to end: a
// fresh runner over a warm store executes zero simulations and returns
// results identical to the runner that populated it.
func TestStoreSharedAcrossRunners(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var sims1 obs.Counter
	r1 := tiny()
	r1.Store = st
	r1.SimCounter = &sims1
	specs := r1.SweepSpecs([]string{"Baseline", "HYBRID2"}, []int{1})
	warm, err := r1.ResultsParallel(specs)
	if err != nil {
		t.Fatal(err)
	}
	if sims1.Value() == 0 {
		t.Fatal("cold sweep executed no simulations")
	}

	// A separate store instance on the same directory models a restart.
	st2, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var sims2 obs.Counter
	r2 := tiny()
	r2.Store = st2
	r2.SimCounter = &sims2
	got, err := r2.ResultsParallel(specs)
	if err != nil {
		t.Fatal(err)
	}
	if sims2.Value() != 0 {
		t.Fatalf("warm sweep executed %d simulations, want 0", sims2.Value())
	}
	for i := range warm {
		if warm[i] != got[i] {
			t.Fatalf("run %d differs between cold and warm sweep:\ncold %+v\nwarm %+v", i, warm[i], got[i])
		}
	}

	// A runner with a different knob must not be served those entries.
	var sims3 obs.Counter
	r3 := tiny()
	r3.Store = st2
	r3.SimCounter = &sims3
	r3.Seed = 7
	if _, err := r3.ResultErr(specs[0].Workload, specs[0].Design, specs[0].Ratio16); err != nil {
		t.Fatal(err)
	}
	if sims3.Value() != 1 {
		t.Fatalf("different-seed run was served from the store (%d sims)", sims3.Value())
	}
}
