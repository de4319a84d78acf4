package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hybridmem/internal/api"
	"hybridmem/internal/exp"
	"hybridmem/internal/obs"
	"hybridmem/internal/sim"
	"hybridmem/internal/telemetry"
)

// TestRunSeriesEndpoint drives the sync telemetry path: ?series=1
// returns a run-series document whose embedded result is byte-identical
// to the plain run's, and a repeated request is served from cache with
// the exact same bytes.
func TestRunSeriesEndpoint(t *testing.T) {
	s := newTestServer(t, Options{})
	req := quickRun()

	plain := postJSON(t, s.Handler(), "/v1/run", req)
	if plain.Code != http.StatusOK {
		t.Fatalf("plain run: %d %s", plain.Code, plain.Body)
	}
	sampled := postJSON(t, s.Handler(), "/v1/run?series=1&window_instr=8192", req)
	if sampled.Code != http.StatusOK {
		t.Fatalf("sampled run: %d %s", sampled.Code, sampled.Body)
	}
	if !strings.Contains(sampled.Body.String(), `"series_schema": 2`) {
		t.Fatalf("sampled run document missing series_schema:\n%s", sampled.Body)
	}

	// Telemetry is passive: the embedded result object must match the
	// plain run's result object exactly.
	var plainDoc, seriesDoc struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(plain.Body.Bytes(), &plainDoc); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(sampled.Body.Bytes(), &seriesDoc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plainDoc.Result, seriesDoc.Result) {
		t.Fatalf("sampled run's result diverges from the plain run's:\n%s\nvs\n%s",
			seriesDoc.Result, plainDoc.Result)
	}

	var full struct {
		Series api.Series `json:"series"`
	}
	if err := json.Unmarshal(sampled.Body.Bytes(), &full); err != nil {
		t.Fatal(err)
	}
	if full.Series.WindowInstr != 8192 {
		t.Errorf("series window = %d, want the requested 8192", full.Series.WindowInstr)
	}
	if len(full.Series.Epochs) == 0 || len(full.Series.Phases) == 0 {
		t.Fatalf("sampled run has empty series: %d epochs, %d phases",
			len(full.Series.Epochs), len(full.Series.Phases))
	}

	// The repeat is a cache hit under the series fingerprint — and the
	// engine's determinism makes the cached bytes indistinguishable from
	// a fresh execution anyway.
	again := postJSON(t, s.Handler(), "/v1/run?series=1&window_instr=8192", req)
	if again.Code != http.StatusOK {
		t.Fatalf("repeated sampled run: %d %s", again.Code, again.Body)
	}
	if !bytes.Equal(again.Body.Bytes(), sampled.Body.Bytes()) {
		t.Fatal("repeated sampled run returned different bytes")
	}

	// A falsy series parameter is the plain path, same bytes as before.
	off := postJSON(t, s.Handler(), "/v1/run?series=0", req)
	if !bytes.Equal(off.Body.Bytes(), plain.Body.Bytes()) {
		t.Fatal("series=0 run differs from the plain run")
	}
	if w := postJSON(t, s.Handler(), "/v1/run?series=1&window_instr=nope", req); w.Code != http.StatusBadRequest {
		t.Fatalf("bad window_instr: %d, want 400", w.Code)
	}
}

// TestSweepSeriesJobEndToEnd drives the async telemetry path: a sweep
// submitted with series options streams live epoch events over SSE,
// serves the assembled series document at /v1/jobs/{id}/series, and its
// headline result document stays byte-identical to a plain sweep's.
func TestSweepSeriesJobEndToEnd(t *testing.T) {
	s := newTestServer(t, Options{Parallelism: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	plain := sweepRequest{
		Designs:   []string{"Baseline", "HYBRID2"},
		Workloads: []string{"lbm"},
		Config:    api.Config{Scale: 16, NMRatio16: 1, InstrPerCore: 50_000, Seed: 1},
	}
	want := runJob(t, s, "/v1/sweep", plain)

	sampled := plain
	sampled.Series = &seriesOptions{WindowInstr: 8192}
	w := postJSON(t, s.Handler(), "/v1/sweep", sampled)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", w.Code, w.Body)
	}
	var sub submitResponse
	json.Unmarshal(w.Body.Bytes(), &sub)

	// Series options are part of the fingerprint: this is new work, not
	// the plain sweep's job.
	var plainSub submitResponse
	json.Unmarshal(postJSON(t, s.Handler(), "/v1/sweep", plain).Body.Bytes(), &plainSub)
	if sub.JobID == plainSub.JobID {
		t.Fatal("sampled sweep deduplicated onto the plain sweep's job")
	}

	// The SSE stream of a sampled sweep carries live epoch frames.
	sresp, err := http.Get(ts.URL + "/v1/jobs/" + sub.JobID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if !strings.Contains(string(events), "event: done") {
		t.Fatalf("SSE stream missing done event:\n%s", events)
	}
	if strings.Contains(string(events), "event: epoch") {
		var first string
		for _, line := range strings.Split(string(events), "\n") {
			if after, ok := strings.CutPrefix(line, "data: "); ok && strings.Contains(line, `"epoch"`) {
				first = after
				break
			}
		}
		var ev epochEvent
		if err := json.Unmarshal([]byte(first), &ev); err != nil {
			t.Fatalf("epoch frame is not valid JSON: %v\n%s", err, first)
		}
		if ev.Design == "" || ev.Workload == "" {
			t.Errorf("epoch frame missing run identity: %+v", ev)
		}
	}

	if st := waitJob(t, s.Handler(), sub.JobID); st.State != jobDone {
		t.Fatalf("sampled sweep failed: %+v", st)
	}
	got := get(s.Handler(), "/v1/jobs/"+sub.JobID+"/result")
	if got.Code != http.StatusOK {
		t.Fatalf("result: %d %s", got.Code, got.Body)
	}
	if !bytes.Equal(got.Body.Bytes(), want) {
		t.Fatalf("sampled sweep's headline document diverges from the plain sweep's:\n%s\nvs\n%s", got.Body, want)
	}

	sw := get(s.Handler(), "/v1/jobs/"+sub.JobID+"/series")
	if sw.Code != http.StatusOK {
		t.Fatalf("series: %d %s", sw.Code, sw.Body)
	}
	var doc api.SweepSeries
	if err := json.Unmarshal(sw.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Partial {
		t.Error("settled sweep's series document is marked partial")
	}
	if doc.SeriesSchema != api.SeriesSchemaVersion {
		t.Errorf("series document schema = %d, want %d", doc.SeriesSchema, api.SeriesSchemaVersion)
	}
	if len(doc.Entries) != len(plain.Designs) {
		t.Fatalf("series entries = %d, want %d", len(doc.Entries), len(plain.Designs))
	}
	for _, e := range doc.Entries {
		if len(e.Series.Epochs) == 0 {
			t.Errorf("run %s/%s has no epochs", e.Design, e.Workload)
		}
	}

	// The plain sweep has no series to serve.
	if w := get(s.Handler(), "/v1/jobs/"+plainSub.JobID+"/series"); w.Code != http.StatusNotFound {
		t.Fatalf("plain sweep's series endpoint: %d, want 404", w.Code)
	}
}

// TestJobSeriesDocLifecycle pins the series endpoint's contract over a
// sampled sweep's life: while the sweep runs it renders the runs
// settled so far, marked partial; once settled the job record keeps no
// series and the endpoint serves the store's settled document.
func TestJobSeriesDocLifecycle(t *testing.T) {
	s := newTestServer(t, Options{})
	halfway, release := make(chan struct{}), make(chan struct{})
	s.runSweep = func(ctx context.Context, specs []exp.RunSpec, _ api.Config, tel *exp.TelemetryOptions, _ func(int, int)) ([]sim.Result, error) {
		tel.OnSeries(1, &telemetry.Series{WindowInstr: 4096, EpochsTotal: 2})
		close(halfway)
		select {
		case <-release:
		case <-ctx.Done(): // a failed test's drain
			return nil, ctx.Err()
		}
		res := make([]sim.Result, len(specs))
		for i, sp := range specs {
			res[i] = sim.Result{Design: sp.Design, Workload: sp.Workload.Name, Cycles: 1}
		}
		return res, nil
	}
	w := postJSON(t, s.Handler(), "/v1/sweep", sweepRequest{
		Designs:   []string{"Baseline", "HYBRID2"},
		Workloads: []string{"lbm"},
		Series:    &seriesOptions{WindowInstr: 4096},
	})
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", w.Code, w.Body)
	}
	var sub submitResponse
	json.Unmarshal(w.Body.Bytes(), &sub)
	<-halfway

	mid := get(s.Handler(), "/v1/jobs/"+sub.JobID+"/series")
	var doc api.SweepSeries
	if err := json.Unmarshal(mid.Body.Bytes(), &doc); mid.Code != http.StatusOK || err != nil {
		t.Fatalf("mid-sweep series: %d %s (%v)", mid.Code, mid.Body, err)
	}
	if !doc.Partial || len(doc.Entries) != 2 || doc.Entries[1].Series.EpochsTotal != 2 || doc.Entries[0].Series.EpochsTotal != 0 {
		t.Fatalf("mid-sweep doc is not the partial document of run 1 settled:\n%s", mid.Body)
	}

	close(release)
	if st := waitJob(t, s.Handler(), sub.JobID); st.State != jobDone {
		t.Fatalf("sweep failed: %+v", st)
	}
	j, _ := s.jobs.lookup(sub.JobID)
	if _, running := j.seriesDoc(false); running {
		t.Fatal("a settled job still holds its series slots")
	}
	settled := get(s.Handler(), "/v1/jobs/"+sub.JobID+"/series")
	stored, ok := s.store.Peek(seriesKey(sub.JobID))
	if settled.Code != http.StatusOK || !ok || !bytes.Equal(settled.Body.Bytes(), stored) {
		t.Fatalf("settled series is not the store's document: %d %s", settled.Code, settled.Body)
	}
	if strings.Contains(settled.Body.String(), `"partial"`) {
		t.Fatalf("settled doc carries the partial flag:\n%s", settled.Body)
	}
}

// TestDebugEventsQueryParams covers the /debug/events filters: ?n=
// keeps the last N events, ?span= keeps one name, and they compose.
func TestDebugEventsQueryParams(t *testing.T) {
	s := newTestServer(t, Options{})
	runJob(t, s, "/v1/sweep", sweepRequest{
		Designs:   []string{"Baseline"},
		Workloads: []string{"lbm"},
		Config:    api.Config{Scale: 16, NMRatio16: 1, InstrPerCore: 50_000, Seed: 1},
	})

	type dump struct {
		Total  uint64      `json:"total"`
		Events []obs.Event `json:"events"`
	}
	read := func(path string) dump {
		t.Helper()
		w := get(s.Handler(), path)
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, w.Code, w.Body)
		}
		var d dump
		if err := json.Unmarshal(w.Body.Bytes(), &d); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return d
	}

	full := read("/debug/events")
	if len(full.Events) < 2 {
		t.Fatalf("flight recorder has %d events; the test needs at least 2", len(full.Events))
	}

	last := read("/debug/events?n=2")
	if len(last.Events) != 2 {
		t.Fatalf("?n=2 returned %d events", len(last.Events))
	}
	if last.Total != full.Total {
		t.Errorf("?n=2 total = %d, want the recorder total %d", last.Total, full.Total)
	}
	// The last N of the full dump, in the same (oldest-first) order.
	for i, e := range last.Events {
		want := full.Events[len(full.Events)-2+i]
		if e.Span != want.Span || e.Name != want.Name || e.Kind != want.Kind || e.TimeUnixNano != want.TimeUnixNano {
			t.Errorf("?n=2 event %d = %+v, want %+v", i, e, want)
		}
	}

	jobs := read("/debug/events?span=job")
	if len(jobs.Events) == 0 {
		t.Fatal("?span=job matched nothing after a completed job")
	}
	for _, e := range jobs.Events {
		if e.Name != "job" {
			t.Errorf("?span=job leaked event %q", e.Name)
		}
	}

	both := read("/debug/events?span=job&n=1")
	if len(both.Events) != 1 {
		t.Fatalf("?span=job&n=1 returned %d events", len(both.Events))
	}
	if lastJob := jobs.Events[len(jobs.Events)-1]; both.Events[0].Span != lastJob.Span ||
		both.Events[0].Kind != lastJob.Kind || both.Events[0].TimeUnixNano != lastJob.TimeUnixNano {
		t.Errorf("?span=job&n=1 = %+v, want the last job event %+v", both.Events[0], lastJob)
	}

	if none := read("/debug/events?span=no_such_span"); len(none.Events) != 0 {
		t.Errorf("?span=no_such_span returned %d events", len(none.Events))
	}
	if w := get(s.Handler(), "/debug/events?n=-1"); w.Code != http.StatusBadRequest {
		t.Errorf("?n=-1 = %d, want 400", w.Code)
	}
	if w := get(s.Handler(), "/debug/events?n=two"); w.Code != http.StatusBadRequest {
		t.Errorf("?n=two = %d, want 400", w.Code)
	}
}

// TestBuildInfoAndEpochMetrics checks the scrape-time face of the
// telemetry plane: the build-info gauge is present (with its version
// labels) and passes the exposition lint, and a sampled run feeds the
// hybridmem_sim_epoch_* family.
func TestBuildInfoAndEpochMetrics(t *testing.T) {
	s := newTestServer(t, Options{})

	first := get(s.Handler(), "/metrics")
	if err := obs.Lint(first.Body.Bytes()); err != nil {
		t.Fatalf("scrape fails lint: %v", err)
	}
	if !strings.Contains(first.Body.String(), `hybridmem_build_info{engine_version="`) {
		t.Fatal("scrape is missing hybridmem_build_info")
	}
	if !strings.Contains(first.Body.String(), "hybridmem_sim_epochs_total 0") {
		t.Fatal("epoch counter should start at zero")
	}

	if w := postJSON(t, s.Handler(), "/v1/run?series=1", quickRun()); w.Code != http.StatusOK {
		t.Fatalf("sampled run: %d %s", w.Code, w.Body)
	}
	second := get(s.Handler(), "/metrics")
	if err := obs.Lint(second.Body.Bytes()); err != nil {
		t.Fatalf("post-run scrape fails lint: %v", err)
	}
	if err := obs.LintMonotonic(first.Body.Bytes(), second.Body.Bytes()); err != nil {
		t.Fatalf("counters ran backwards: %v", err)
	}
	if strings.Contains(second.Body.String(), "hybridmem_sim_epochs_total 0") {
		t.Fatal("sampled run closed no epochs on the scrape")
	}
	if !strings.Contains(second.Body.String(), "hybridmem_sim_epoch_index ") {
		t.Fatal("scrape is missing the hybridmem_sim_epoch_* family")
	}
}

// TestSweepSeriesSurvivesRestart: with persistence on, a restarted
// server adopts a settled sampled sweep's series document alongside its
// result.
func TestSweepSeriesSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	req := sweepRequest{
		Designs:   []string{"HYBRID2"},
		Workloads: []string{"lbm"},
		Config:    api.Config{Scale: 16, NMRatio16: 1, InstrPerCore: 50_000, Seed: 1},
		Series:    &seriesOptions{WindowInstr: 8192},
	}
	req.Config = normalizeConfig(req.Config, 1_000_000)

	s0 := newTestServer(t, Options{StateDir: dir})
	w := postJSON(t, s0.Handler(), "/v1/sweep", req)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", w.Code, w.Body)
	}
	var sub submitResponse
	json.Unmarshal(w.Body.Bytes(), &sub)
	if st := waitJob(t, s0.Handler(), sub.JobID); st.State != jobDone {
		t.Fatalf("sweep failed: %+v", st)
	}
	want := get(s0.Handler(), "/v1/jobs/"+sub.JobID+"/series")
	if want.Code != http.StatusOK {
		t.Fatalf("series before restart: %d %s", want.Code, want.Body)
	}

	s1 := newTestServer(t, Options{StateDir: dir})
	got := get(s1.Handler(), "/v1/jobs/"+sub.JobID+"/series")
	if got.Code != http.StatusOK {
		t.Fatalf("series after restart: %d %s", got.Code, got.Body)
	}
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatal("recovered series document differs from the original")
	}
}
