package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"hybridmem/internal/api"
	"hybridmem/internal/cluster"
	"hybridmem/internal/obs"
	"hybridmem/internal/store"
)

// clusterTestServer builds a coordinator-mode server with n loopback
// runners attached — the serve-layer face of the distributed plane.
func clusterTestServer(t *testing.T, n int) (*Server, *cluster.Coordinator) {
	t.Helper()
	c := cluster.NewCoordinator(cluster.CoordinatorOptions{
		ShardSize:        2,
		MaxInFlight:      1,
		LocalParallelism: 2,
	})
	c.AttachLoopback(n, 1)
	return newTestServer(t, Options{Cluster: c, Parallelism: 2}), c
}

// runJob submits a job request and returns the settled job's result
// document bytes.
func runJob(t *testing.T, s *Server, path string, req any) []byte {
	t.Helper()
	w := postJSON(t, s.Handler(), path, req)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit %s: %d %s", path, w.Code, w.Body)
	}
	var sub submitResponse
	if err := json.Unmarshal(w.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, s.Handler(), sub.JobID); st.State != jobDone {
		t.Fatalf("job %s failed: %+v", sub.JobID, st)
	}
	res := get(s.Handler(), "/v1/jobs/"+sub.JobID+"/result")
	if res.Code != http.StatusOK {
		t.Fatalf("result: %d %s", res.Code, res.Body)
	}
	return res.Body.Bytes()
}

// TestClusterSweepMatchesLocalServer pins the serve-layer face of the
// distributed guarantee: the same sweep submitted to a plain server and
// to a coordinator sharding across loopback runners yields the same
// document, byte for byte.
func TestClusterSweepMatchesLocalServer(t *testing.T) {
	req := sweepRequest{
		Designs:   []string{"Baseline", "MPOD", "HYBRID2"},
		Workloads: []string{"lbm", "mcf"},
		Config:    api.Config{Scale: 16, NMRatio16: 1, InstrPerCore: 50_000, Seed: 1},
	}
	plain := newTestServer(t, Options{Parallelism: 2})
	want := runJob(t, plain, "/v1/sweep", req)

	clustered, c := clusterTestServer(t, 3)
	got := runJob(t, clustered, "/v1/sweep", req)
	if !bytes.Equal(got, want) {
		t.Fatalf("clustered sweep differs from local server:\nlocal: %s\nclustered: %s", want, got)
	}
	if st := c.Stats(); st.ShardsCompleted == 0 {
		t.Fatalf("sweep never went through the cluster: %+v", st)
	}
}

// TestClusterExploreMatchesLocalServer does the same for a screened
// exploration — search state stays on the coordinator, only evaluations
// distribute, and the final document is byte-identical.
func TestClusterExploreMatchesLocalServer(t *testing.T) {
	req := exploreRequest{
		Families:           []string{"H2DSE"},
		Workloads:          []string{"mcf"},
		Budget:             6,
		BatchSize:          2,
		Seed:               7,
		MaxPerParam:        3,
		ScreenInstrPerCore: 8_000,
		Config:             api.Config{Scale: 16, NMRatio16: 1, InstrPerCore: 20_000, Seed: 1},
	}
	plain := newTestServer(t, Options{Parallelism: 2})
	want := runJob(t, plain, "/v1/explore", req)

	clustered, c := clusterTestServer(t, 3)
	got := runJob(t, clustered, "/v1/explore", req)
	if !bytes.Equal(got, want) {
		t.Fatalf("clustered exploration differs from local server:\nlocal: %s\nclustered: %s", want, got)
	}
	if st := c.Stats(); st.ShardsCompleted == 0 {
		t.Fatalf("exploration never went through the cluster: %+v", st)
	}
}

// TestClusterMetricsAndHealth checks the operational surface: /metrics
// exposes the cluster counters and per-runner gauges, /healthz reports
// the coordinator role and live-runner count, and the cluster join
// endpoint is routed.
func TestClusterMetricsAndHealth(t *testing.T) {
	s, _ := clusterTestServer(t, 2)
	runJob(t, s, "/v1/sweep", sweepRequest{
		Designs:   []string{"Baseline"},
		Workloads: []string{"lbm"},
		Config:    api.Config{Scale: 16, NMRatio16: 1, InstrPerCore: 50_000, Seed: 1},
	})

	w := get(s.Handler(), "/metrics")
	body := w.Body.String()
	for _, line := range []string{
		"hybridmem_cluster_runners_live 2",
		"hybridmem_cluster_shards_dispatched_total",
		"hybridmem_cluster_shards_completed_total",
		"hybridmem_cluster_shards_stolen_total",
		"hybridmem_cluster_shards_retried_total",
		"hybridmem_cluster_runs_warm_total 0",
		`hybridmem_cluster_runner_inflight{runner="loopback-1"}`,
		`hybridmem_cluster_runner_shards_total{runner="loopback-2"}`,
	} {
		if !strings.Contains(body, line) {
			t.Errorf("/metrics missing %q", line)
		}
	}

	h := get(s.Handler(), "/healthz")
	var health map[string]string
	if err := json.Unmarshal(h.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health["role"] != "coordinator" || health["live_runners"] != "2" {
		t.Fatalf("coordinator health = %v", health)
	}

	// The join endpoint is wired and validates version skew.
	skew := postJSON(t, s.Handler(), "/cluster/v1/join", map[string]any{
		"proto": -1, "schema": api.SchemaVersion, "engine": api.EngineVersion,
		"id": "x", "addr": "http://127.0.0.1:1",
	})
	if skew.Code != http.StatusBadRequest {
		t.Fatalf("skewed join answered %d, want 400", skew.Code)
	}
}

// TestClusterSweepReusesRunRecords: a coordinator sharing the server's
// disk store settles runs that an earlier sweep persisted without
// dispatching them — the runs, not the sweeps, are the unit of reuse —
// and reports them on /metrics.
func TestClusterSweepReusesRunRecords(t *testing.T) {
	st, err := store.Open(store.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.NewCoordinator(cluster.CoordinatorOptions{ShardSize: 2, Store: st})
	c.AttachLoopback(2, 1)
	s := newTestServer(t, Options{Cluster: c, Store: st, Parallelism: 2})
	cfg := api.Config{Scale: 16, NMRatio16: 1, InstrPerCore: 20_000, Seed: 1}
	runJob(t, s, "/v1/sweep", sweepRequest{Designs: []string{"Baseline", "HYBRID2"}, Workloads: []string{"lbm", "mcf"}, Config: cfg})
	dispatched := c.Stats().ShardsDispatched

	// A different sweep is a different job, but both its runs are warm.
	subset := sweepRequest{Designs: []string{"HYBRID2"}, Workloads: []string{"mcf", "lbm"}, Config: cfg}
	got := runJob(t, s, "/v1/sweep", subset)
	if want := runJob(t, newTestServer(t, Options{Parallelism: 2}), "/v1/sweep", subset); !bytes.Equal(got, want) {
		t.Fatalf("warm clustered sweep differs from a local server:\nlocal: %s\nclustered: %s", want, got)
	}
	if st := c.Stats(); st.ShardsDispatched != dispatched || st.RunsWarm != 2 {
		t.Fatalf("warm sweep dispatched %d more shards with %d warm runs, want 0 and 2", st.ShardsDispatched-dispatched, st.RunsWarm)
	}
	body := get(s.Handler(), "/metrics").Body.Bytes()
	if err := obs.Lint(body); err != nil {
		t.Fatalf("/metrics fails lint: %v", err)
	}
	if !bytes.Contains(body, []byte("\nhybridmem_cluster_runs_warm_total 2\n")) {
		t.Fatalf("/metrics lacks hybridmem_cluster_runs_warm_total 2:\n%s", body)
	}
}

// TestCoordinatorCountsLocalSims: a coordinator with no runners executes
// a sweep through its local fallback, and every one of those cold runs
// shows up in hybridmem_sims_total.
func TestCoordinatorCountsLocalSims(t *testing.T) {
	s, _ := clusterTestServer(t, 0)
	req := sweepRequest{
		Designs:   []string{"Baseline", "HYBRID2"},
		Workloads: []string{"lbm", "mcf"},
		Config:    api.Config{Scale: 16, NMRatio16: 1, InstrPerCore: 20_000, Seed: 1},
	}
	runJob(t, s, "/v1/sweep", req)
	const want = "\nhybridmem_sims_total 4\n"
	if body := get(s.Handler(), "/metrics").Body.String(); !strings.Contains(body, want) {
		t.Fatalf("/metrics after 4 cold runs lacks %q:\n%s", strings.TrimSpace(want), body)
	}
}

// TestPlainServerHasNoClusterSurface pins the inverse: without a
// coordinator, no cluster metrics, no cluster routes, plain health.
func TestPlainServerHasNoClusterSurface(t *testing.T) {
	s := newTestServer(t, Options{})
	if body := get(s.Handler(), "/metrics").Body.String(); strings.Contains(body, "hybridmem_cluster_") {
		t.Fatal("plain server exposes cluster metrics")
	}
	if w := postJSON(t, s.Handler(), "/cluster/v1/join", map[string]any{}); w.Code == http.StatusBadRequest {
		// A routed handler answers 400 for a bad body; an unrouted path
		// must 404 instead.
		t.Fatalf("plain server routes /cluster/v1/join: %d", w.Code)
	}
	var health map[string]string
	if err := json.Unmarshal(get(s.Handler(), "/healthz").Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if _, ok := health["role"]; ok {
		t.Fatalf("plain server reports a cluster role: %v", health)
	}
}
