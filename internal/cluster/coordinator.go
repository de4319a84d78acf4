package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"hybridmem/internal/dse"
	"hybridmem/internal/exp"
	"hybridmem/internal/obs"
)

// transport executes one shard RPC against a runner — HTTP for real
// nodes, a direct call for loopback runners and the local fallback.
type transport interface {
	runShard(ctx context.Context, req ShardRequest) (ShardResponse, error)
}

// runnerHandle is the coordinator's view of one registered runner. A
// registered handle is live exactly while the pool maps its ID to it: a
// drop deletes the entry, and a re-join under the same ID replaces it,
// retiring the old handle. The per-batch local handle is never
// registered and is live for its batch.
type runnerHandle struct {
	id        string
	addr      string
	transport transport
	loopback  bool // exempt from heartbeat expiry
	local     bool // the coordinator's own fallback executor

	// Guarded by the coordinator's mu.
	lastBeat time.Time
	gauge    *runnerGauge
}

// runnerGauge is a runner ID's dispatch gauge. A re-join hands it to the
// new handle, so the retired handle's in-flight calls keep counting
// under the ID until they settle, and Dispatched keeps counting up.
type runnerGauge struct {
	inFlight   int
	dispatched uint64
}

// Coordinator owns the runner pool and dispatches shard work across it.
// It is safe for concurrent use: runners join and leave while batches
// run, and multiple Run calls may be in flight at once (each batch has
// its own dispatcher; the pool and its worker accounting are shared).
type Coordinator struct {
	opts CoordinatorOptions

	mu      sync.Mutex
	runners map[string]*runnerHandle
	active  []*dispatcher // batches currently dispatching

	stats Stats
	// sims counts engine executions by the coordinator's own executors
	// (loopback runners and the local fallback); remote nodes count on
	// their own registries.
	sims obs.Counter
}

// Stats is a snapshot of the coordinator's dispatch counters, surfaced
// on /metrics.
type Stats struct {
	// RunnersLive counts currently registered, non-expired runners.
	RunnersLive int
	// RunnersJoined and RunnersDropped count registrations and
	// liveness/failure expulsions over the coordinator's lifetime.
	RunnersJoined  uint64
	RunnersDropped uint64
	// ShardsDispatched counts dispatch attempts started (steals and
	// retries included); ShardsCompleted counts shards whose first
	// response was accepted.
	ShardsDispatched uint64
	ShardsCompleted  uint64
	// ShardsStolen counts speculative re-executions of in-flight shards;
	// ShardsRetried counts requeues after a failed attempt;
	// DuplicatesDropped counts responses discarded because another
	// execution of the same shard already completed it.
	ShardsStolen      uint64
	ShardsRetried     uint64
	DuplicatesDropped uint64
	// LocalShards counts shards executed by the coordinator's local
	// fallback because no runner was live.
	LocalShards uint64
	// RunsWarm counts runs settled from the result store before
	// dispatch: records persisted by an earlier batch or local run.
	RunsWarm uint64
	// Runners lists the live runners with their in-flight shard counts,
	// sorted by ID.
	Runners []RunnerStat
}

// RunnerStat is one live runner's dispatch gauge.
type RunnerStat struct {
	ID         string
	InFlight   int
	Dispatched uint64
}

// NewCoordinator returns a coordinator with no runners; runners join
// via HandleJoin/Join or AttachLoopback. Until one does, and whenever
// the pool is empty, the coordinator executes shards in-process.
func NewCoordinator(opts CoordinatorOptions) *Coordinator {
	return &Coordinator{
		opts:    opts.withDefaults(),
		runners: make(map[string]*runnerHandle),
	}
}

// RegisterMetrics folds the coordinator's dispatch counters into a
// registry as scrape-time collectors over Stats() — the registry owns
// rendering, the coordinator stays the single source of truth. The
// serving layer calls this once with the registry backing its /metrics;
// registering the same coordinator on one registry twice panics.
func (c *Coordinator) RegisterMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	stat := func(f func(Stats) float64) func() float64 {
		return func() float64 { return f(c.Stats()) }
	}
	r.GaugeFunc("hybridmem_cluster_runners_live", "Currently registered, non-expired runner nodes.",
		stat(func(s Stats) float64 { return float64(s.RunnersLive) }))
	r.CounterFunc("hybridmem_cluster_runners_joined_total", "Runner registrations over the coordinator's lifetime.",
		stat(func(s Stats) float64 { return float64(s.RunnersJoined) }))
	r.CounterFunc("hybridmem_cluster_runners_dropped_total", "Runners expelled for RPC failures or heartbeat expiry.",
		stat(func(s Stats) float64 { return float64(s.RunnersDropped) }))
	r.CounterFunc("hybridmem_cluster_shards_dispatched_total", "Shard dispatch attempts started, steals and retries included.",
		stat(func(s Stats) float64 { return float64(s.ShardsDispatched) }))
	r.CounterFunc("hybridmem_cluster_shards_completed_total", "Shards whose first response was accepted.",
		stat(func(s Stats) float64 { return float64(s.ShardsCompleted) }))
	r.CounterFunc("hybridmem_cluster_shards_stolen_total", "Speculative re-executions of in-flight shards.",
		stat(func(s Stats) float64 { return float64(s.ShardsStolen) }))
	r.CounterFunc("hybridmem_cluster_shards_retried_total", "Shard requeues after a failed dispatch attempt.",
		stat(func(s Stats) float64 { return float64(s.ShardsRetried) }))
	r.CounterFunc("hybridmem_cluster_duplicates_dropped_total", "Responses discarded because another execution won the race.",
		stat(func(s Stats) float64 { return float64(s.DuplicatesDropped) }))
	r.CounterFunc("hybridmem_cluster_local_shards_total", "Shards executed by the coordinator's local fallback.",
		stat(func(s Stats) float64 { return float64(s.LocalShards) }))
	r.CounterFunc("hybridmem_cluster_runs_warm_total", "Runs settled from the result store before dispatch.",
		stat(func(s Stats) float64 { return float64(s.RunsWarm) }))
	runnerSamples := func(f func(RunnerStat) float64) func() []obs.Sample {
		return func() []obs.Sample {
			st := c.Stats()
			out := make([]obs.Sample, 0, len(st.Runners))
			for _, rs := range st.Runners {
				out = append(out, obs.Sample{Labels: []string{rs.ID}, Value: f(rs)})
			}
			return out
		}
	}
	r.GaugeSamplesFunc("hybridmem_cluster_runner_inflight", "Shards currently in flight, per live runner.",
		[]string{"runner"}, runnerSamples(func(rs RunnerStat) float64 { return float64(rs.InFlight) }))
	r.CounterSamplesFunc("hybridmem_cluster_runner_shards_total", "Shard dispatches per live runner.",
		[]string{"runner"}, runnerSamples(func(rs RunnerStat) float64 { return float64(rs.Dispatched) }))
}

// Sims counts the simulations the coordinator's own executors (loopback
// runners and the local fallback) actually ran, store hits excluded —
// the serving layer folds it into hybridmem_sims_total.
func (c *Coordinator) Sims() uint64 { return c.sims.Value() }

// exec returns an in-process shard executor sharing the coordinator's
// simulation counter and observability plane. It has no store: the
// coordinator recalls and persists run records itself.
func (c *Coordinator) exec(parallelism int) Exec {
	return Exec{Parallelism: parallelism, SimCounter: &c.sims, Obs: c.opts.Obs}
}

// Join registers (or refreshes) a runner reachable at the given URL
// base and returns the heartbeat cadence it must keep.
func (c *Coordinator) Join(id, addr string) time.Duration {
	c.join(&runnerHandle{
		id:   id,
		addr: addr,
		transport: &httpTransport{
			addr:   addr,
			client: &http.Client{Timeout: c.opts.RPCTimeout + 10*time.Second},
		},
	})
	return c.opts.HeartbeatInterval
}

// join installs a handle into the pool, replacing any previous
// registration under the same ID, and offers it to active dispatchers.
// A replaced handle is retired: its workers take no further shard, and
// its in-flight calls still settle.
func (c *Coordinator) join(h *runnerHandle) {
	c.mu.Lock()
	h.lastBeat = time.Now()
	if old := c.runners[h.id]; old != nil {
		h.gauge = old.gauge
	} else {
		h.gauge = new(runnerGauge)
	}
	c.runners[h.id] = h
	c.stats.RunnersJoined++
	active := append([]*dispatcher(nil), c.active...)
	c.mu.Unlock()
	c.opts.Log.Info("cluster: runner joined", "runner", h.id, "addr", h.addr)
	for _, d := range active {
		d.addRunner(h)
	}
}

// Heartbeat refreshes a registration; false means the coordinator does
// not know the runner (expired or never joined) and it must rejoin.
func (c *Coordinator) Heartbeat(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.runners[id]
	if !ok {
		return false
	}
	h.lastBeat = time.Now()
	return true
}

// AttachLoopback registers n in-process runners executing shards by
// direct call — the no-network mode tests and benchmarks drive. Each
// loopback runner gets its own bounded executor, so dispatch, in-flight
// accounting and stealing behave exactly as with real nodes.
func (c *Coordinator) AttachLoopback(n, parallelism int) {
	for i := 0; i < n; i++ {
		c.join(&runnerHandle{
			id:        fmt.Sprintf("loopback-%d", i+1),
			addr:      "loopback",
			transport: c.exec(parallelism),
			loopback:  true,
		})
	}
}

// dropRunner expels a runner from the pool (RPC failures or heartbeat
// expiry); its in-flight shards are requeued by their workers' fail
// paths. A handle the pool no longer holds — already dropped, or
// replaced by a re-join — is left alone.
func (c *Coordinator) dropRunner(h *runnerHandle, reason string) {
	c.mu.Lock()
	if c.runners[h.id] != h {
		c.mu.Unlock()
		return
	}
	delete(c.runners, h.id)
	c.stats.RunnersDropped++
	active := append([]*dispatcher(nil), c.active...)
	c.mu.Unlock()
	c.opts.Log.Info("cluster: runner dropped", "runner", h.id, "reason", reason)
	for _, d := range active {
		d.wake()
	}
}

// pruneExpired drops runners whose heartbeat lapsed.
func (c *Coordinator) pruneExpired() {
	c.mu.Lock()
	var expired []*runnerHandle
	now := time.Now()
	for _, h := range c.runners {
		if !h.loopback && now.Sub(h.lastBeat) > c.opts.HeartbeatTimeout {
			expired = append(expired, h)
		}
	}
	c.mu.Unlock()
	for _, h := range expired {
		c.dropRunner(h, "heartbeat expired")
	}
}

// liveRunners snapshots the current pool.
func (c *Coordinator) liveRunners() []*runnerHandle {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*runnerHandle, 0, len(c.runners))
	for _, h := range c.runners {
		out = append(out, h)
	}
	return out
}

// Stats snapshots the dispatch counters. Expired runners are pruned
// first, so the snapshot reflects liveness even while no batch is
// dispatching (the monitor goroutine only runs during a Run).
func (c *Coordinator) Stats() Stats {
	c.pruneExpired()
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.RunnersLive = len(c.runners)
	s.Runners = make([]RunnerStat, 0, len(c.runners))
	for _, h := range c.runners {
		s.Runners = append(s.Runners, RunnerStat{ID: h.id, InFlight: h.gauge.inFlight, Dispatched: h.gauge.dispatched})
	}
	sort.Slice(s.Runners, func(i, j int) bool { return s.Runners[i].ID < s.Runners[j].ID })
	return s
}

// HandleJoin is the coordinator's POST /cluster/v1/join endpoint.
func (c *Coordinator) HandleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if err := decodeJSON(r.Body, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := checkVersions(req.Proto, req.Schema, req.Engine); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.ID == "" || req.Addr == "" {
		http.Error(w, "cluster: join needs id and addr", http.StatusBadRequest)
		return
	}
	interval := c.Join(req.ID, req.Addr)
	writeJSON(w, joinResponse{OK: true, HeartbeatMillis: interval.Milliseconds()})
}

// HandleHeartbeat is the coordinator's POST /cluster/v1/heartbeat
// endpoint. A false ack tells the runner to rejoin.
func (c *Coordinator) HandleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if err := decodeJSON(r.Body, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, map[string]bool{"ok": c.Heartbeat(req.ID)})
}

// Run executes a batch of runs across the cluster and returns outcomes
// in input order — the deterministic merge every distributed document
// rests on. Runs whose record the coordinator's store already holds
// settle without dispatch; the rest are sharded, and each successful
// outcome is persisted under its run key. progress (optional) is called
// with completed and total run counts, first for the warm runs and then
// as shards finish. Run fails only on cancellation or a shard exhausting
// its attempt budget; per-run failures ride the outcome Err slots. With
// no live runner the coordinator executes shards itself, so Run never
// waits for a join.
func (c *Coordinator) Run(ctx context.Context, cfg Config, runs []exp.Run, progress func(done, total int)) ([]RunOutcome, error) {
	if len(runs) == 0 {
		return nil, nil
	}
	d := newDispatcher(c, cfg, runs, progress)
	if d.remaining == 0 {
		return d.out, nil
	}
	// The batch span hangs off the caller's span (a serve job, usually)
	// so a distributed document's timeline reads job -> batch -> shard
	// -> runner. With tracing off every handle is nil and this is free.
	sp := obs.SpanFrom(ctx).Child("cluster_batch",
		obs.Int("runs", int64(len(runs))), obs.Int("shards", int64(len(d.shards))))
	if sp == nil {
		sp = c.opts.Obs.Tracer().StartSpan("cluster_batch",
			obs.Int("runs", int64(len(runs))), obs.Int("shards", int64(len(d.shards))))
	}
	defer sp.End()
	return d.run(obs.ContextWithSpan(ctx, sp))
}

// Evaluator adapts the coordinator into the design-space search's
// evaluation seam: batches of dse runs execute as cluster shards, and
// outcomes reduce to the integer measurements the search folds locally
// through the same dse.Measure as an in-process search — so a
// distributed exploration is byte-identical to a single-process one.
func (c *Coordinator) Evaluator() dse.Evaluator {
	return func(ctx context.Context, cfg dse.EvalConfig, runs []exp.Run) ([]dse.EvalResult, error) {
		outs, err := c.Run(ctx, Config{Scale: cfg.Scale, InstrPerCore: cfg.InstrPerCore, Seed: cfg.SimSeed}, runs, nil)
		if err != nil {
			return nil, err
		}
		res := make([]dse.EvalResult, len(outs))
		for i, o := range outs {
			res[i] = dse.Measure(o.Result)
			res[i].Err = o.Err
		}
		return res, nil
	}
}

// isDead reports whether a registered handle has left the pool,
// dropped or replaced by a re-join.
func (c *Coordinator) isDead(h *runnerHandle) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !h.local && c.runners[h.id] != h
}

// liveCount counts registered runners (the local fallback handle is
// never registered, so it does not count itself).
func (c *Coordinator) liveCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.runners)
}

// noteDispatch, noteSettled and noteFailed keep the dispatch counters
// and per-runner gauges.
func (c *Coordinator) noteDispatch(h *runnerHandle, stolen, local bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h.gauge.inFlight++
	h.gauge.dispatched++
	c.stats.ShardsDispatched++
	if stolen {
		c.stats.ShardsStolen++
	}
	if local {
		c.stats.LocalShards++
	}
}

func (c *Coordinator) noteSettled(h *runnerHandle, duplicate bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h.gauge.inFlight--
	if duplicate {
		c.stats.DuplicatesDropped++
	} else {
		c.stats.ShardsCompleted++
	}
}

func (c *Coordinator) noteWarmRuns(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.RunsWarm += uint64(n)
}

func (c *Coordinator) noteFailed(h *runnerHandle, retried bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h.gauge.inFlight--
	if retried {
		c.stats.ShardsRetried++
	}
}

// localParallelism resolves the fallback executor's worker bound.
func (c *Coordinator) localParallelism() int {
	if c.opts.LocalParallelism > 0 {
		return c.opts.LocalParallelism
	}
	return runtime.GOMAXPROCS(0)
}

// httpTransport dials a runner node's shard endpoint.
type httpTransport struct {
	addr   string
	client *http.Client
}

func (t *httpTransport) runShard(ctx context.Context, req ShardRequest) (ShardResponse, error) {
	data, err := json.Marshal(req)
	if err != nil {
		return ShardResponse{}, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, t.addr+"/cluster/v1/shard", bytes.NewReader(data))
	if err != nil {
		return ShardResponse{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := t.client.Do(hreq)
	if err != nil {
		return ShardResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return ShardResponse{}, fmt.Errorf("cluster: shard RPC to %s: %s: %s", t.addr, resp.Status, bytes.TrimSpace(msg))
	}
	var out ShardResponse
	if err := decodeJSON(resp.Body, &out); err != nil {
		return ShardResponse{}, err
	}
	return out, nil
}
