package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"hybridmem/internal/api"
	"hybridmem/internal/exp"
	"hybridmem/internal/obs"
	"hybridmem/internal/store"
)

// maxRPCBytes bounds cluster RPC bodies: shard requests and responses
// are small structured documents, so anything larger is garbage or
// abuse, not work.
const maxRPCBytes = 16 << 20

// Exec executes shards in-process — the execution core shared by real
// runner nodes, the loopback transport and the coordinator's local
// fallback. Every shard gets a fresh exp.Runner configured from the
// request, so outcomes are the pure deterministic simulation function
// of (config, run) with no cross-shard state.
type Exec struct {
	// Parallelism bounds concurrent simulations per shard; <= 0 means
	// GOMAXPROCS.
	Parallelism int
	// Store, when non-nil, lets the per-shard runners reuse previously
	// simulated run records from its disk tier and persist new ones, so
	// a runner node answers repeated shards without re-simulating. Only
	// runner nodes set it; the coordinator keeps its own records.
	Store *store.Store
	// SimCounter, when non-nil, counts actual engine executions (store
	// and memo hits excluded).
	SimCounter *obs.Counter
	// Obs, when non-nil, hooks shard execution into the observability
	// plane: the simulate phase lands in its registry's phase histogram
	// and traced shards record their spans into its flight recorder.
	Obs *obs.Obs
}

// runShard makes Exec the transport of loopback runners and the
// coordinator's local fallback: a direct call through exactly the same
// dispatch machinery (sharding, in-flight bounds, stealing, retry,
// merge) as an HTTP runner, minus the sockets.
func (e Exec) runShard(ctx context.Context, req ShardRequest) (ShardResponse, error) {
	return e.RunShard(ctx, req)
}

// RunShard executes one shard request and returns outcomes in run
// order. Per-run failures (unknown workload, invalid config, malformed
// design, simulation error) ride the outcome Err slots; only version
// mismatch and cancellation fail the call itself.
func (e Exec) RunShard(ctx context.Context, req ShardRequest) (ShardResponse, error) {
	if err := checkVersions(req.Proto, req.Schema, req.Engine); err != nil {
		return ShardResponse{}, err
	}
	runner := &exp.Runner{
		Scale:        req.Config.Scale,
		InstrPerCore: req.Config.InstrPerCore,
		Seed:         req.Config.Seed,
		Parallelism:  e.Parallelism,
		Store:        e.Store,
		SimCounter:   e.SimCounter,
	}
	// A traced request gets a per-shard recorder: the remote span tree
	// lands there, is folded into this node's own flight recorder, and
	// is echoed in the response for the coordinator's timeline. An
	// untraced request allocates none of this and the response carries
	// no Events — wire bytes identical to a pre-tracing node.
	var rec *obs.FlightRecorder
	var sp *obs.Span
	if req.Trace != nil {
		rec = obs.NewFlightRecorder(16)
		sp = obs.NewTracer(rec).StartRemote(req.Trace.TraceID, req.Trace.SpanID, "runner_shard",
			obs.Int("shard", int64(req.Shard)), obs.Int("runs", int64(len(req.Runs))))
	}
	resp := ShardResponse{Proto: ProtoVersion, Shard: req.Shard, Runs: make([]RunOutcome, len(req.Runs))}
	simStart := time.Now()
	results, errs := runner.ResultsByName(ctx, req.Runs)
	obs.PhaseHist(e.Obs.Registry()).With("simulate").ObserveDuration(time.Since(simStart))
	if err := ctx.Err(); err != nil {
		return ShardResponse{}, err
	}
	for i, err := range errs {
		if err != nil {
			resp.Runs[i].Err = err.Error()
			continue
		}
		resp.Runs[i].Result = results[i]
	}
	if sp != nil {
		sp.End()
		resp.Events = rec.Snapshot()
		e.Obs.Flight().RecordAll(resp.Events)
	}
	return resp, nil
}

// NodeOptions configures a runner node (see ServeNode).
type NodeOptions struct {
	// Addr is the listen address (host:port); empty means 127.0.0.1:0.
	Addr string
	// Join is the coordinator's base URL (e.g. http://host:8080). The
	// node keeps (re)joining it for as long as it runs.
	Join string
	// Advertise is the URL base the coordinator dials back for shard
	// RPCs; empty derives http://<listen address>.
	Advertise string
	// ID names this runner to the coordinator; empty derives it from the
	// listen address.
	ID string
	// Parallelism bounds concurrent simulations per shard; <= 0 means
	// GOMAXPROCS.
	Parallelism int
	// StoreDir, when non-empty, gives this runner a persistent result
	// store: run records land in the directory's disk tier and repeated
	// runs — including work re-dispatched after the node rejoins — are
	// answered from it without re-simulating.
	StoreDir string
	// StoreMaxBytes bounds the on-disk store; <= 0 means unbounded.
	StoreMaxBytes int64
	// Log receives structured operational log records; nil discards
	// them.
	Log *slog.Logger
	// Obs, when non-nil, gives the node its own observability plane:
	// /metrics renders its registry (simulation and shard counters, the
	// store tiers, phase timings), /debug/events dumps its flight
	// recorder, and traced shard RPCs record spans into it. nil keeps
	// the node fully passive; /metrics and /debug/events then serve
	// empty documents.
	Obs *obs.Obs
	// OnListen, when non-nil, is called with the bound listen address
	// before serving starts — how tests and callers learn a :0 port.
	OnListen func(addr string)
}

// node is one running runner process.
type node struct {
	opts   NodeOptions
	exec   Exec
	client *http.Client
	sims   obs.Counter
	shards obs.Counter

	mu       sync.Mutex
	attached bool
}

// registerMetrics publishes the node's own counters — simulations,
// shards served, and its store tiers when it has one — on its registry.
func (n *node) registerMetrics() {
	r := n.opts.Obs.Registry()
	if r == nil {
		return
	}
	r.RegisterCounter("hybridmem_sims_total", "Simulations actually executed (store and memo hits excluded).", &n.sims)
	r.RegisterCounter("hybridmem_cluster_node_shards_total", "Shard RPCs this node answered successfully.", &n.shards)
	if st := n.exec.Store; st != nil {
		stat := func(f func(store.Stats) float64) func() float64 {
			return func() float64 { return f(st.Stats()) }
		}
		r.CounterFunc("hybridmem_store_disk_hits_total", "Disk-tier store hits.",
			stat(func(s store.Stats) float64 { return float64(s.DiskHits) }))
		r.CounterFunc("hybridmem_store_disk_misses_total", "Disk-tier store misses.",
			stat(func(s store.Stats) float64 { return float64(s.DiskMisses) }))
		r.CounterFunc("hybridmem_store_disk_evictions_total", "Disk-tier entries evicted by the size bound.",
			stat(func(s store.Stats) float64 { return float64(s.DiskEvictions) }))
		r.CounterFunc("hybridmem_store_corrupt_discarded_total", "Disk-tier entries discarded on integrity-check failure.",
			stat(func(s store.Stats) float64 { return float64(s.DiskCorrupt) }))
	}
}

// ServeNode runs a runner node until ctx is canceled: it listens for
// shard RPCs, joins the coordinator at opts.Join, and heartbeats at the
// coordinator's advertised cadence, rejoining whenever the coordinator
// restarts or expires the registration. Returns nil on clean shutdown.
func ServeNode(ctx context.Context, opts NodeOptions) error {
	if opts.Join == "" {
		return errors.New("cluster: runner needs a coordinator URL to join")
	}
	if opts.Addr == "" {
		opts.Addr = "127.0.0.1:0"
	}
	if opts.Log == nil {
		opts.Log = slog.New(slog.DiscardHandler)
	}
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return err
	}
	if opts.Advertise == "" {
		opts.Advertise = "http://" + ln.Addr().String()
	}
	if opts.ID == "" {
		opts.ID = "runner-" + ln.Addr().String()
	}
	if opts.OnListen != nil {
		opts.OnListen(ln.Addr().String())
	}
	exec := Exec{Parallelism: opts.Parallelism, Obs: opts.Obs}
	if opts.StoreDir != "" {
		st, err := store.Open(store.Options{Dir: opts.StoreDir, MaxBytes: opts.StoreMaxBytes})
		if err != nil {
			ln.Close()
			return fmt.Errorf("cluster: runner store: %w", err)
		}
		exec.Store = st
	}
	n := &node{
		opts:   opts,
		exec:   exec,
		client: &http.Client{Timeout: 10 * time.Second},
	}
	n.exec.SimCounter = &n.sims
	n.registerMetrics()
	srv := &http.Server{Handler: n.mux(), BaseContext: func(net.Listener) context.Context { return ctx }}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	go n.attachLoop(ctx)
	opts.Log.Info("cluster: runner listening", "runner", opts.ID, "addr", ln.Addr().String(), "join", opts.Join)
	select {
	case <-ctx.Done():
		shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shCtx)
		<-serveErr
		return nil
	case err := <-serveErr:
		return err
	}
}

func (n *node) setAttached(v bool) {
	n.mu.Lock()
	n.attached = v
	n.mu.Unlock()
}

func (n *node) isAttached() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.attached
}

// mux serves the runner's two endpoints: shard execution and health.
func (n *node) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/v1/shard", func(w http.ResponseWriter, r *http.Request) {
		var req ShardRequest
		if err := decodeJSON(r.Body, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp, err := n.exec.RunShard(r.Context(), req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		n.shards.Inc()
		writeJSON(w, resp)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		n.opts.Obs.Registry().WritePrometheus(w)
	})
	mux.HandleFunc("GET /debug/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		n.opts.Obs.Flight().WriteJSON(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]any{
			"status":      "ok",
			"role":        "runner",
			"id":          n.opts.ID,
			"coordinator": n.opts.Join,
			"attached":    n.isAttached(),
		})
	})
	return mux
}

// attachLoop keeps the node registered: join, then heartbeat at the
// advertised cadence; any heartbeat failure drops back to joining.
func (n *node) attachLoop(ctx context.Context) {
	const joinRetry = 500 * time.Millisecond
	for ctx.Err() == nil {
		interval, err := n.join(ctx)
		if err != nil {
			n.setAttached(false)
			n.opts.Log.Warn("cluster: join failed", "runner", n.opts.ID, "coordinator", n.opts.Join, "err", err)
			sleepCtx(ctx, joinRetry)
			continue
		}
		n.setAttached(true)
		n.opts.Log.Info("cluster: runner attached", "runner", n.opts.ID, "coordinator", n.opts.Join, "heartbeat", interval)
		for ctx.Err() == nil {
			sleepCtx(ctx, interval)
			if ctx.Err() != nil {
				break
			}
			if err := n.heartbeat(ctx); err != nil {
				n.setAttached(false)
				n.opts.Log.Warn("cluster: heartbeat failed, rejoining", "runner", n.opts.ID, "err", err)
				break
			}
		}
	}
}

// join registers with the coordinator and returns the heartbeat cadence.
func (n *node) join(ctx context.Context) (time.Duration, error) {
	req := joinRequest{
		Proto:  ProtoVersion,
		Schema: api.SchemaVersion,
		Engine: api.EngineVersion,
		ID:     n.opts.ID,
		Addr:   n.opts.Advertise,
	}
	var resp joinResponse
	if err := n.post(ctx, n.opts.Join+"/cluster/v1/join", req, &resp); err != nil {
		return 0, err
	}
	if !resp.OK || resp.HeartbeatMillis <= 0 {
		return 0, fmt.Errorf("cluster: coordinator rejected join")
	}
	return time.Duration(resp.HeartbeatMillis) * time.Millisecond, nil
}

func (n *node) heartbeat(ctx context.Context) error {
	var ack struct {
		OK bool `json:"ok"`
	}
	if err := n.post(ctx, n.opts.Join+"/cluster/v1/heartbeat", heartbeatRequest{ID: n.opts.ID}, &ack); err != nil {
		return err
	}
	if !ack.OK {
		return errors.New("cluster: registration expired")
	}
	return nil
}

// post sends one JSON request and decodes the JSON response.
func (n *node) post(ctx context.Context, url string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := n.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: %s: %s", url, resp.Status, bytes.TrimSpace(msg))
	}
	return decodeJSON(resp.Body, out)
}

// sleepCtx sleeps d or until ctx is done, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// decodeJSON strictly decodes one bounded JSON document.
func decodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(io.LimitReader(r, maxRPCBytes))
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("cluster: bad request body: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
