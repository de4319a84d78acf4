package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridmem/internal/api"
	"hybridmem/internal/design"
	"hybridmem/internal/dse"
	"hybridmem/internal/exp"
	"hybridmem/internal/sim"
	"hybridmem/internal/store"
	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
)

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(data))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func get(h http.Handler, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("GET", path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func waitJob(t *testing.T, h http.Handler, id string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		w := get(h, "/v1/jobs/"+id)
		if w.Code != http.StatusOK {
			t.Fatalf("job status %d: %s", w.Code, w.Body)
		}
		var st jobStatus
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.State == jobDone || st.State == jobFailed {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not settle", id)
	return jobStatus{}
}

// quickRun is a cheap real run request shared by the integration tests.
func quickRun() runRequest {
	return runRequest{
		Design:   "HYBRID2",
		Workload: "lbm",
		Config:   api.Config{Scale: 16, NMRatio16: 1, InstrPerCore: 50_000, Seed: 1},
	}
}

// TestConcurrentIdenticalRunsSimulateOnce pins the heart of the service:
// N concurrent identical requests execute exactly one simulation
// (singleflight), every caller gets the same bytes, and a later repeat
// is a pure cache hit that never reaches the engine.
func TestConcurrentIdenticalRunsSimulateOnce(t *testing.T) {
	s := newTestServer(t, Options{})
	var sims atomic.Int64
	release := make(chan struct{})
	s.runOne = func(d, wl string, cfg api.Config, _ *exp.TelemetryOptions) (sim.Result, error) {
		sims.Add(1)
		<-release // hold every concurrent caller inside the flight window
		return sim.Result{Workload: wl, Design: d, Cycles: 12345}, nil
	}

	const n = 16
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := postJSON(t, s.Handler(), "/v1/run", quickRun())
			if w.Code == http.StatusOK {
				bodies[i] = w.Body.Bytes()
			}
		}(i)
	}
	// Let every request reach the cache-miss/flight path, then release.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := sims.Load(); got != 1 {
		t.Fatalf("%d concurrent identical requests ran %d simulations, want exactly 1", n, got)
	}
	for i := 1; i < n; i++ {
		if bodies[i] == nil || !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("response %d differs from response 0", i)
		}
	}

	// A repeat after the flight settled is served from cache: still one
	// simulation, and the hit counter moved.
	before := s.store.Stats().MemHits
	w := postJSON(t, s.Handler(), "/v1/run", quickRun())
	if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), bodies[0]) {
		t.Fatalf("cached repeat: code %d, body mismatch", w.Code)
	}
	if got := sims.Load(); got != 1 {
		t.Fatalf("cached repeat re-simulated: %d sims", got)
	}
	if after := s.store.Stats().MemHits; after != before+1 {
		t.Fatalf("cache hits %d -> %d, want +1", before, after)
	}
}

// TestCacheEvictionRespectsBounds pins the LRU bounds of the store's
// memory tier as the serve layer uses it: the byte bound holds at every
// point, eviction is least-recently-used, and an entry larger than the
// whole byte budget is refused rather than flushing the cache. (The
// exhaustive tier tests live with internal/store.)
func TestCacheEvictionRespectsBounds(t *testing.T) {
	byteLen := func(b []byte) int64 { return int64(len(b)) }
	c := store.NewLRU[[]byte](100, 100, byteLen)
	doc := func(n int) []byte { return bytes.Repeat([]byte{'x'}, n) }

	c.Put("a", doc(40))
	c.Put("b", doc(40))
	if st := c.Stats(); st.Bytes != 80 || st.Entries != 2 {
		t.Fatalf("stats %+v after two puts", st)
	}
	// Touch "a" so "b" is the LRU victim when "c" overflows the bytes.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	c.Put("c", doc(40))
	if st := c.Stats(); st.Bytes > 100 {
		t.Fatalf("byte bound violated: %d bytes cached, bound 100", st.Bytes)
	}
	if _, ok := c.Peek("b"); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	if _, ok := c.Peek("a"); !ok {
		t.Fatal("recently used entry a was evicted")
	}

	// Oversized entries are not admitted (and evict nothing).
	c.Put("huge", doc(1000))
	if _, ok := c.Peek("huge"); ok {
		t.Fatal("entry larger than the byte bound was cached")
	}
	if _, ok := c.Peek("a"); !ok {
		t.Fatal("oversized put evicted existing entries")
	}

	// Entry-count bound holds independently of bytes.
	ce := store.NewLRU[[]byte](2, 1<<20, byteLen)
	ce.Put("1", doc(1))
	ce.Put("2", doc(1))
	ce.Put("3", doc(1))
	if st := ce.Stats(); st.Entries != 2 {
		t.Fatalf("entry bound violated: %d entries, bound 2", st.Entries)
	}
	if _, ok := ce.Peek("1"); ok {
		t.Fatal("LRU entry 1 survived entry-bound eviction")
	}
}

// TestGracefulShutdownDrainsInFlight pins drain semantics: a running job
// finishes, new submissions are rejected with 503, and Shutdown returns
// only after the pool is idle.
func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	s.runSweep = func(ctx context.Context, specs []exp.RunSpec, cfg api.Config, _ *exp.TelemetryOptions, progress func(int, int)) ([]sim.Result, error) {
		close(started)
		<-release
		return []sim.Result{{Workload: specs[0].Workload.Name, Design: specs[0].Design, Cycles: 1}}, nil
	}

	sweep := sweepRequest{Designs: []string{"Baseline"}, Workloads: []string{"lbm"}}
	w := postJSON(t, s.Handler(), "/v1/sweep", sweep)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", w.Code, w.Body)
	}
	var sub submitResponse
	json.Unmarshal(w.Body.Bytes(), &sub)
	<-started // the job is now in flight

	done := make(chan error, 1)
	go func() { done <- s.Shutdown(context.Background()) }()

	// Shutdown must not return while the job runs, and new work must be
	// rejected meanwhile.
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned %v with a job still in flight", err)
	default:
	}
	w2 := postJSON(t, s.Handler(), "/v1/sweep", sweepRequest{Designs: []string{"HYBRID2"}, Workloads: []string{"mcf"}})
	if w2.Code != http.StatusServiceUnavailable {
		t.Fatalf("submission during drain: %d, want 503", w2.Code)
	}
	if w3 := get(s.Handler(), "/healthz"); w3.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: %d, want 503", w3.Code)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := waitJob(t, s.Handler(), sub.JobID); st.State != jobDone {
		t.Fatalf("in-flight job state %q after drain, want done", st.State)
	}
}

// TestRunMatchesEngineEncoding pins byte-identity between the served
// document and the shared wire encoding of the same engine run — the
// property the CI e2e diff then re-proves against the real CLI binary.
func TestRunMatchesEngineEncoding(t *testing.T) {
	s := newTestServer(t, Options{})
	req := quickRun()
	w := postJSON(t, s.Handler(), "/v1/run", req)
	if w.Code != http.StatusOK {
		t.Fatalf("run: %d %s", w.Code, w.Body)
	}
	wl, _ := workload.ByName(req.Workload)
	r := &exp.Runner{Scale: req.Config.Scale, InstrPerCore: req.Config.InstrPerCore, Seed: req.Config.Seed}
	sr, err := r.ResultErr(wl, req.Design, req.Config.NMRatio16)
	if err != nil {
		t.Fatal(err)
	}
	want, err := api.Encode(api.NewRun(sr))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatalf("served run differs from engine encoding:\n%s\nvs\n%s", w.Body, want)
	}
}

// TestSweepJobEndToEnd drives a real sweep through the async path:
// submit, progress over SSE, settle, fetch the result document, and
// verify both the bytes (vs the engine encoding) and job dedup.
func TestSweepJobEndToEnd(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sweep := sweepRequest{
		Designs:   []string{"Baseline", "HYBRID2"},
		Workloads: []string{"lbm"},
		Config:    api.Config{Scale: 16, NMRatio16: 1, InstrPerCore: 50_000, Seed: 1},
	}
	body, _ := json.Marshal(sweep)
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	var sub submitResponse
	json.Unmarshal(raw, &sub)

	// The SSE stream must end with a done event for this job.
	sresp, err := http.Get(ts.URL + "/v1/jobs/" + sub.JobID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if !strings.Contains(string(events), "event: done") {
		t.Fatalf("SSE stream missing done event:\n%s", events)
	}

	if st := waitJob(t, s.Handler(), sub.JobID); st.State != jobDone {
		t.Fatalf("sweep job failed: %+v", st)
	}
	w := get(s.Handler(), "/v1/jobs/"+sub.JobID+"/result")
	if w.Code != http.StatusOK {
		t.Fatalf("result: %d %s", w.Code, w.Body)
	}

	r := &exp.Runner{Scale: 16, InstrPerCore: 50_000, Seed: 1}
	var srs []sim.Result
	for _, d := range sweep.Designs {
		wl, _ := workload.ByName("lbm")
		sr, err := r.ResultErr(wl, d, 1)
		if err != nil {
			t.Fatal(err)
		}
		srs = append(srs, sr)
	}
	want, _ := api.Encode(api.NewSweep(srs))
	if !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatalf("sweep document differs from engine encoding:\n%s\nvs\n%s", w.Body, want)
	}

	// Submitting identical work is the same job, not new work.
	w2 := postJSON(t, s.Handler(), "/v1/sweep", sweep)
	var sub2 submitResponse
	json.Unmarshal(w2.Body.Bytes(), &sub2)
	if sub2.JobID != sub.JobID {
		t.Fatalf("identical sweep got a new job: %s vs %s", sub2.JobID, sub.JobID)
	}
	if sub2.State != jobDone {
		t.Fatalf("deduped job state %q, want done", sub2.State)
	}
}

// TestExploreJobResumesFromCheckpoint pins the restart story: a server
// finding a persisted, unfinished exploration (spec + mid-search
// checkpoint) resumes it and produces a document byte-identical to an
// uninterrupted search.
func TestExploreJobResumesFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	req := exploreRequest{
		Families:  []string{"H2DSE"},
		Workloads: []string{"mcf"},
		Budget:    8,
		BatchSize: 4,
		Seed:      3,
		Config:    api.Config{Scale: 16, NMRatio16: 1, InstrPerCore: 30_000, Seed: 1},
	}
	req.MaxPerParam = 3
	req.Config = normalizeConfig(req.Config, 200_000)
	id := exploreKey(req)

	mkOpts := func(checkpoint string, maxRounds int) dse.Options {
		return dse.Options{
			Families: req.Families, Workloads: req.Workloads,
			Budget: req.Budget, BatchSize: req.BatchSize, Seed: req.Seed,
			Scale: req.Config.Scale, InstrPerCore: req.Config.InstrPerCore,
			SimSeed: req.Config.Seed, Ratio16: req.Config.NMRatio16,
			MaxPerParam: req.MaxPerParam, Checkpoint: checkpoint, MaxRounds: maxRounds,
		}
	}

	// The reference: the same search, uninterrupted.
	full, err := dse.Search(context.Background(), mkOpts("", 0))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := api.Encode(full.APIDoc())

	// Simulate the pre-restart server: the job spec is persisted and one
	// batch ran before the interruption, leaving a checkpoint behind.
	spec, _ := json.Marshal(persistedJob{Kind: "explore", Explore: &req})
	s0 := &Server{opts: Options{StateDir: dir}}
	if err := writeFile(s0.statePath("job", id), spec); err != nil {
		t.Fatal(err)
	}
	if _, err := dse.Search(context.Background(), mkOpts(s0.statePath("ckpt", id), 1)); err != nil {
		t.Fatal(err)
	}

	// The restarted server recovers the job and resumes the search.
	s := newTestServer(t, Options{StateDir: dir})
	st := waitJob(t, s.Handler(), id)
	if st.State != jobDone {
		t.Fatalf("recovered explore job: %+v", st)
	}
	w := get(s.Handler(), "/v1/jobs/"+id+"/result")
	if !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatalf("resumed exploration differs from uninterrupted run:\n%s\nvs\n%s", w.Body, want)
	}

	// A second restart adopts the finished job without re-running it.
	s2 := newTestServer(t, Options{StateDir: dir})
	if st := waitJob(t, s2.Handler(), id); st.State != jobDone {
		t.Fatalf("adopted job: %+v", st)
	}
	if w2 := get(s2.Handler(), "/v1/jobs/"+id+"/result"); !bytes.Equal(w2.Body.Bytes(), want) {
		t.Fatal("adopted result differs")
	}
}

// TestReplayStreamsInConstantMemory uploads a multi-million-record trace
// from a generator whose total text (~tens of MB) must never be resident
// at once: the handler streams the body into the trace decoder, so the
// heap grows by far less than the trace size.
func TestReplayStreamsInConstantMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-record upload")
	}
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const records = 2_000_000
	traceBytes := int64(0)

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	pr, pw := io.Pipe()
	go func() {
		defer pw.Close()
		w := newCountWriter(pw, &traceBytes)
		for i := 0; i < records; i++ {
			// 8 cores round-robin with identical per-group ops, so the
			// cores advance in lockstep and the interleave stays within
			// the default lookahead window.
			op := "R"
			if (i/8)%16 == 0 {
				op = "W"
			}
			fmt.Fprintf(w, "%d 3 %x %s\n", i%8, uint64(i)*64%(1<<30), op)
		}
	}()
	resp, err := http.Post(ts.URL+"/v1/replay?design=Baseline&name=synthetic&mlp=2", "application/octet-stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay: %d %s", resp.StatusCode, body)
	}
	var doc api.Run
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Result.Requests == 0 || doc.Result.Cycles == 0 {
		t.Fatalf("replay produced an empty result: %+v", doc.Result)
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if traceBytes < 20<<20 {
		t.Fatalf("generator produced only %d bytes; test is not exercising a large upload", traceBytes)
	}
	if grew > traceBytes/4 {
		t.Fatalf("heap grew %d bytes replaying a %d-byte trace; the upload path is buffering", grew, traceBytes)
	}
}

// TestRequestValidation pins the cheap-400 contract.
func TestRequestValidation(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	cases := []struct {
		name string
		path string
		body any
	}{
		{"bad design", "/v1/run", runRequest{Design: "NOSUCH", Workload: "lbm"}},
		{"bad workload", "/v1/run", runRequest{Design: "HYBRID2", Workload: "nosuch"}},
		{"bad scale", "/v1/run", runRequest{Design: "HYBRID2", Workload: "lbm", Config: api.Config{Scale: -1, NMRatio16: 1, InstrPerCore: 1000}}},
		{"bad ratio", "/v1/run", runRequest{Design: "HYBRID2", Workload: "lbm", Config: api.Config{Scale: 16, NMRatio16: 3, InstrPerCore: 1000}}},
		{"empty sweep", "/v1/sweep", sweepRequest{}},
		{"sweep bad design", "/v1/sweep", sweepRequest{Designs: []string{"DFC-0"}, Workloads: []string{"lbm"}}},
		{"explore no budget", "/v1/explore", exploreRequest{Families: []string{"H2DSE"}}},
		{"explore bad family", "/v1/explore", exploreRequest{Families: []string{"NOSUCH"}, Budget: 4}},
		{"instr over limit", "/v1/run", runRequest{Design: "HYBRID2", Workload: "lbm", Config: api.Config{Scale: 16, NMRatio16: 1, InstrPerCore: 1 << 40}}},
		// One epoch past the cap: a ring the sampler would preallocate
		// (about 13 MB), refused before any sampler exists.
		{"run max_epochs over limit", "/v1/run?series=1&max_epochs=" + strconv.Itoa(maxSeriesEpochs+1), quickRun()},
		{"sweep max_epochs over limit", "/v1/sweep", sweepRequest{Designs: []string{"HYBRID2"}, Workloads: []string{"lbm"},
			Series: &seriesOptions{MaxEpochs: maxSeriesEpochs + 1}}},
	}
	for _, tc := range cases {
		if w := postJSON(t, h, tc.path, tc.body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400 (%s)", tc.name, w.Code, w.Body)
		}
	}
	// Unknown fields are rejected, not ignored.
	req := httptest.NewRequest("POST", "/v1/run", strings.NewReader(`{"desing":"HYBRID2"}`))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Errorf("typoed field: code %d, want 400", w.Code)
	}
	if w := get(h, "/v1/jobs/nosuchjob"); w.Code != http.StatusNotFound {
		t.Errorf("unknown job: code %d, want 404", w.Code)
	}
}

// TestReplayRejectsMLPOutOfRange: /v1/replay answers 400 for an mlp
// outside [1, exp.MaxMLP] — an unbounded one would allocate per-core
// state proportional to it, and 1<<30 would exhaust memory and kill
// the server.
func TestReplayRejectsMLPOutOfRange(t *testing.T) {
	h := newTestServer(t, Options{}).Handler()
	for _, mlp := range []string{"0", "-3", strconv.Itoa(exp.MaxMLP + 1), "1073741824"} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/replay?design=Baseline&mlp="+mlp, strings.NewReader("0 1 40 R\n")))
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "mlp") {
			t.Errorf("mlp %s: code %d (%s), want 400 naming mlp", mlp, w.Code, strings.TrimSpace(w.Body.String()))
		}
	}
}

// TestReplayRejectsWindowAboveMax: /v1/replay answers 400 for a window
// above trace.MaxWindow, which would let one small compressed upload
// make the reader buffer without bound.
func TestReplayRejectsWindowAboveMax(t *testing.T) {
	h := newTestServer(t, Options{}).Handler()
	for _, window := range []string{strconv.Itoa(trace.MaxWindow + 1), "100000000"} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/replay?design=Baseline&window="+window, strings.NewReader("0 1 40 R\n")))
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "window") {
			t.Errorf("window %s: code %d (%s), want 400 naming the window", window, w.Code, strings.TrimSpace(w.Body.String()))
		}
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/replay?design=Baseline&window="+strconv.Itoa(trace.MaxWindow), strings.NewReader("0 1 40 R\n")))
	if w.Code != http.StatusOK {
		t.Errorf("window %d (the bound): code %d (%s), want 200", trace.MaxWindow, w.Code, strings.TrimSpace(w.Body.String()))
	}
}

// TestReplayLargeGapsFinish replays wideGapTrace through /v1/replay on
// every registered design's sample name. Each must answer 200 well
// within a second, counting every instruction of the trace: a design
// that stepped its periodic work once per elapsed period would hold the
// sync slot for hours.
func TestReplayLargeGapsFinish(t *testing.T) {
	h := newTestServer(t, Options{}).Handler()
	for _, info := range design.AllInfos() {
		name := info.SampleName()
		done := make(chan *httptest.ResponseRecorder, 1)
		start := time.Now()
		go func() {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/replay?design="+url.QueryEscape(name), strings.NewReader(wideGapTrace)))
			done <- w
		}()
		select {
		case w := <-done:
			if w.Code != http.StatusOK {
				t.Fatalf("%s: code %d (%s)", name, w.Code, strings.TrimSpace(w.Body.String()))
			}
			var doc api.Run
			if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if want := uint64(3<<62 + 2); doc.Result.Instructions != want {
				t.Errorf("%s: %d instructions, want %d", name, doc.Result.Instructions, want)
			}
			if d := time.Since(start); d > time.Second {
				t.Errorf("%s: large-gap replay took %v", name, d)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: large-gap replay still running after 10s", name)
		}
	}
}

// TestReplayInstructionOverflowIsBadRequest: a trace whose instructions
// pass 2^64-1 is answered 400, naming the offending line.
func TestReplayInstructionOverflowIsBadRequest(t *testing.T) {
	h := newTestServer(t, Options{}).Handler()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/replay?design=HYBRID2", strings.NewReader(largeGapTrace)))
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "line 2: ") {
		t.Fatalf("code %d (%s), want 400 at line 2", w.Code, strings.TrimSpace(w.Body.String()))
	}
}

// TestSyncSimulationBound pins the inline-work bound: with every sync
// slot occupied, a distinct (uncached) run answers 503 instead of
// starting another simulation.
func TestSyncSimulationBound(t *testing.T) {
	s := newTestServer(t, Options{MaxSyncSims: 1})
	release := make(chan struct{})
	started := make(chan struct{})
	s.runOne = func(d, wl string, cfg api.Config, _ *exp.TelemetryOptions) (sim.Result, error) {
		close(started)
		<-release
		return sim.Result{Workload: wl, Design: d, Cycles: 1}, nil
	}
	first := quickRun()
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- postJSON(t, s.Handler(), "/v1/run", first) }()
	<-started // the only sync slot is now held

	second := quickRun()
	second.Config.Seed = 99 // distinct fingerprint: cache and flight miss
	if w := postJSON(t, s.Handler(), "/v1/run", second); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated sync slot answered %d, want 503 (%s)", w.Code, w.Body)
	}
	close(release)
	if w := <-done; w.Code != http.StatusOK {
		t.Fatalf("held run: %d %s", w.Code, w.Body)
	}
}

// TestMetricsEndpoint spot-checks the exposition format.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Options{})
	postJSON(t, s.Handler(), "/v1/run", quickRun())
	postJSON(t, s.Handler(), "/v1/run", quickRun()) // cache hit
	w := get(s.Handler(), "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: %d", w.Code)
	}
	out := w.Body.String()
	for _, want := range []string{
		"# TYPE hybridmem_cache_hits_total counter",
		"hybridmem_cache_hits_total 1",
		"hybridmem_cache_misses_total 1",
		"hybridmem_jobs_queue_depth 0",
		"hybridmem_inflight_sims 0",
		`hybridmem_http_requests_total{path="/v1/run"} 2`,
		`hybridmem_http_request_duration_us{path="/v1/run",quantile="0.5"}`,
		`hybridmem_http_request_duration_us_count{path="/v1/run"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
}

// countWriter counts bytes flowing through the trace generator.
type countWriter struct {
	w io.Writer
	n *int64
}

func newCountWriter(w io.Writer, n *int64) *countWriter { return &countWriter{w: w, n: n} }

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	*cw.n += int64(n)
	return n, err
}

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// TestExploreKeyPinned pins the parts of an explore job's store key, so
// explore documents stored by an earlier build keep hitting.
func TestExploreKeyPinned(t *testing.T) {
	req := exploreRequest{
		Families:    []string{"H2DSE"},
		Workloads:   []string{"mcf"},
		Budget:      8,
		BatchSize:   4,
		Seed:        3,
		MaxPerParam: 3,
		Config:      normalizeConfig(api.Config{InstrPerCore: 30_000}, 200_000),
	}
	want := store.Fingerprint(append(store.VersionParts("explore"),
		"families=H2DSE", "workloads=mcf", "budget=8", "batch=4", "seed=3",
		"maxvals=3", "ubound=0",
		"scale=16", "ratio=1", "instr=30000", "seed=1")...)
	if got := exploreKey(req); got != want {
		t.Fatalf("exploreKey = %s, want %s", got, want)
	}
}
