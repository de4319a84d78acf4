package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"hybridmem/internal/api"
	"hybridmem/internal/exp"
	"hybridmem/internal/obs"
	"hybridmem/internal/sim"
)

// stubSweep is a runSweep seam that settles every run at once, counting
// its calls.
func stubSweep(calls *int) func(context.Context, []exp.RunSpec, api.Config, *exp.TelemetryOptions, func(int, int)) ([]sim.Result, error) {
	return func(_ context.Context, specs []exp.RunSpec, _ api.Config, _ *exp.TelemetryOptions, _ func(int, int)) ([]sim.Result, error) {
		*calls++
		res := make([]sim.Result, len(specs))
		for i, sp := range specs {
			res[i] = sim.Result{Design: sp.Design, Workload: sp.Workload.Name, Cycles: 1}
		}
		return res, nil
	}
}

// submitSweep posts a one-run sweep at seed and returns its job ID.
func submitSweep(t *testing.T, s *Server, seed uint64) string {
	t.Helper()
	w := postJSON(t, s.Handler(), "/v1/sweep", sweepRequest{
		Designs: []string{"Baseline"}, Workloads: []string{"lbm"}, Config: api.Config{Seed: seed},
	})
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", w.Code, w.Body)
	}
	var sub submitResponse
	if err := json.Unmarshal(w.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, s.Handler(), sub.JobID); st.State != jobDone {
		t.Fatalf("sweep failed: %+v", st)
	}
	return sub.JobID
}

// TestJobHistoryRetiresOldest: past JobHistory settled jobs, the oldest
// is retired — its status answers 404 and its persisted spec leaves the
// state directory — while the newer ones still serve their results.
func TestJobHistoryRetiresOldest(t *testing.T) {
	dir := t.TempDir()
	// One worker settles and retires the jobs in submission order.
	s := newTestServer(t, Options{StateDir: dir, JobHistory: 2, Workers: 1})
	var calls int
	s.runSweep = stubSweep(&calls)
	ids := []string{submitSweep(t, s, 1), submitSweep(t, s, 2), submitSweep(t, s, 3)}

	// The worker retires a job just after the job reports done: first
	// its index entry, then its persisted spec.
	retired := func() bool {
		_, err := os.Stat(s.statePath("job", ids[0]))
		return get(s.Handler(), "/v1/jobs/"+ids[0]).Code == http.StatusNotFound && os.IsNotExist(err)
	}
	for deadline := time.Now().Add(10 * time.Second); !retired(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the oldest of 3 settled jobs was not retired (status 404, spec removed) under JobHistory 2")
		}
	}
	if w := get(s.Handler(), "/v1/jobs/"+ids[0]+"/result"); w.Code != http.StatusNotFound {
		t.Errorf("retired job's result: %d, want 404", w.Code)
	}
	for _, id := range ids[1:] {
		if w := get(s.Handler(), "/v1/jobs/"+id+"/result"); w.Code != http.StatusOK {
			t.Errorf("job %s: result %d, want 200", id, w.Code)
		}
		if _, err := os.Stat(s.statePath("job", id)); err != nil {
			t.Errorf("job %s lost its spec: %v", id, err)
		}
	}
}

// TestEvictedJobResultIsGone: a memory-only store can evict a settled
// job's document. The result endpoint then answers 410, and
// resubmitting the same body runs the job again and serves the same
// bytes.
func TestEvictedJobResultIsGone(t *testing.T) {
	s := newTestServer(t, Options{CacheEntries: 2})
	var calls int
	s.runSweep = stubSweep(&calls)
	s.runOne = func(d, wl string, _ api.Config, _ *exp.TelemetryOptions) (sim.Result, error) {
		return sim.Result{Design: d, Workload: wl, Cycles: 1}, nil
	}
	id := submitSweep(t, s, 1)
	want := get(s.Handler(), "/v1/jobs/"+id+"/result")
	if want.Code != http.StatusOK {
		t.Fatalf("result: %d %s", want.Code, want.Body)
	}
	// Two run documents fill the two-entry store and evict the sweep's.
	for seed := uint64(1); seed <= 2; seed++ {
		req := quickRun()
		req.Config.Seed = seed
		if w := postJSON(t, s.Handler(), "/v1/run", req); w.Code != http.StatusOK {
			t.Fatalf("run: %d %s", w.Code, w.Body)
		}
	}
	if w := get(s.Handler(), "/v1/jobs/"+id+"/result"); w.Code != http.StatusGone {
		t.Fatalf("evicted result: %d %s, want 410", w.Code, w.Body)
	}
	if again := submitSweep(t, s, 1); again != id {
		t.Fatalf("resubmission got job %s, want %s", again, id)
	}
	got := get(s.Handler(), "/v1/jobs/"+id+"/result")
	if got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("recomputed result: %d, bytes differ from the first:\n%s\nvs\n%s", got.Code, got.Body, want.Body)
	}
	if calls != 2 {
		t.Fatalf("the sweep ran %d times, want 2 (once, then once more after the eviction)", calls)
	}
}

// TestUnstorableJobDocumentFails: a job whose document no tier of the
// store can hold fails with a 500 that names the bound, rather than
// settling as done and answering 410 to every fetch and resubmission.
// A disk tier that holds the document covers a memory tier too small
// for it.
func TestUnstorableJobDocumentFails(t *testing.T) {
	body := sweepRequest{Designs: []string{"Baseline"}, Workloads: []string{"lbm"}, Config: api.Config{Seed: 1}}
	for _, tc := range []struct {
		name string
		opts Options
		want string
	}{
		{"memory-only", Options{CacheBytes: 64}, jobFailed},
		{"disk", Options{CacheBytes: 64, StoreDir: t.TempDir()}, jobDone},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, tc.opts)
			var calls int
			s.runSweep = stubSweep(&calls)
			w := postJSON(t, s.Handler(), "/v1/sweep", body)
			if w.Code != http.StatusAccepted {
				t.Fatalf("submit: %d %s", w.Code, w.Body)
			}
			var sub submitResponse
			if err := json.Unmarshal(w.Body.Bytes(), &sub); err != nil {
				t.Fatal(err)
			}
			if st := waitJob(t, s.Handler(), sub.JobID); st.State != tc.want {
				t.Fatalf("job state %q (%s), want %q", st.State, st.Error, tc.want)
			}
			res := get(s.Handler(), "/v1/jobs/"+sub.JobID+"/result")
			switch tc.want {
			case jobFailed:
				if res.Code != http.StatusInternalServerError || !strings.Contains(res.Body.String(), "exceeds the result store's bounds") {
					t.Fatalf("result: %d %s, want 500 naming the store's bounds", res.Code, res.Body)
				}
			default:
				if res.Code != http.StatusOK || !json.Valid(res.Body.Bytes()) {
					t.Fatalf("result: %d %s, want 200", res.Code, res.Body)
				}
			}
		})
	}
}

// TestServerHeapStaysInABox: past the memory tier's bound, a server on
// an unbounded disk store keeps no state per request served. A
// per-file index in the disk tier cost about 123 B a file; the bound is
// a quarter of what it would add over the 3N files written between the
// two readings. The flight recorder (a ring of fixed size, 4096 events
// by default, about 2 per request) is sized to fill within the first N
// requests, so its own growth does not count. Not parallel: it reads
// the process heap.
func TestServerHeapStaysInABox(t *testing.T) {
	s := newTestServer(t, Options{StoreDir: t.TempDir(), CacheEntries: 64, Obs: obs.New(obs.Options{FlightEvents: 512})})
	s.runOne = func(d, wl string, _ api.Config, _ *exp.TelemetryOptions) (sim.Result, error) {
		return sim.Result{Design: d, Workload: wl, Cycles: 1}, nil
	}
	serveRuns := func(from, to int) {
		for i := from; i < to; i++ {
			req := quickRun()
			req.Config.Seed = uint64(i + 1)
			if w := postJSON(t, s.Handler(), "/v1/run", req); w.Code != http.StatusOK {
				t.Fatalf("run %d: %d %s", i, w.Code, w.Body)
			}
		}
	}
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	const n = 1000
	serveRuns(0, n)
	before := liveHeap()
	serveRuns(n, 4*n)
	growth := liveHeap() - before
	if st := s.store.Stats(); st.DiskEntries != 4*n {
		t.Fatalf("disk tier holds %d entries, want one per request (%d)", st.DiskEntries, 4*n)
	}
	const bound = 3 * n * 123 / 4
	t.Logf("live heap grew %d B over %d requests (bound %d B)", growth, 3*n, bound)
	if growth >= bound {
		t.Fatalf("live heap grew %d B over %d distinct requests, want < %d B", growth, 3*n, bound)
	}
}
