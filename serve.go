package hybridmem

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hybridmem/internal/cluster"
	"hybridmem/internal/obs"
	"hybridmem/internal/serve"
)

// ServeOptions configures the simulation service started by Serve. The
// zero value of every field has a usable default.
type ServeOptions struct {
	// Addr is the TCP listen address; empty means ":8080".
	Addr string
	// StateDir enables persistence: submitted job requests and
	// exploration checkpoints are written there, and a restarted server
	// resumes unfinished work from it. Finished results and series live
	// in the result store, whose disk tier defaults to <StateDir>/store
	// when StoreDir is empty, so they are adopted after a restart without
	// re-simulating. Empty keeps everything in memory.
	StateDir string
	// CacheEntries and CacheBytes bound the content-addressed result
	// cache (the result store's memory tier); <= 0 means 1024 entries
	// and 64 MB.
	CacheEntries int
	CacheBytes   int64
	// StoreDir, when non-empty, adds a persistent disk tier below the
	// memory cache: result documents and one record per simulated run
	// are written there, and repeated requests are served from it across
	// restarts, never re-simulating. In coordinator mode the coordinator
	// reads and writes the same run records for the runs it dispatches,
	// so a batch re-run after node loss or a coordinator restart
	// dispatches only runs the store has not seen. Entries are keyed by
	// the engine and schema versions, so version bumps invalidate the
	// directory's contents rather than serving stale results.
	StoreDir string
	// StoreMaxBytes bounds the disk tier; least-recently-used entries
	// are garbage-collected past it. <= 0 means unbounded.
	StoreMaxBytes int64
	// QueueDepth bounds queued async jobs (sweeps, explorations); a full
	// queue answers 503. <= 0 means 64.
	QueueDepth int
	// JobHistory bounds how many settled jobs stay addressable over the
	// job endpoints before the oldest are retired; <= 0 means 4096.
	JobHistory int
	// Workers is the async job worker-pool size (<= 0 means 2); each job
	// fans its simulations out across Parallelism runner workers (<= 0
	// means GOMAXPROCS).
	Workers     int
	Parallelism int
	// DrainTimeout bounds the graceful shutdown after ctx is canceled:
	// queued and running jobs get this long to finish before they are
	// canceled (explorations flush a final checkpoint and resume on
	// restart). <= 0 means 30s.
	DrainTimeout time.Duration
	// Log receives structured operational log records; nil discards
	// them.
	Log *slog.Logger
	// FlightEvents is the capacity of the server's flight recorder —
	// the bounded ring of recent trace events served over /debug/events;
	// <= 0 means 4096.
	FlightEvents int
	// DumpEventsOnSIGQUIT, when set, installs a SIGQUIT handler that
	// dumps the flight recorder to stderr (replacing the runtime's
	// default stack-dump-and-exit behaviour; the process keeps running).
	DumpEventsOnSIGQUIT bool
	// OnListen, when non-nil, is called with the bound listen address
	// once the server accepts connections — useful with ":0" ports.
	OnListen func(addr string)

	// Coordinator turns the server into a cluster coordinator: runner
	// nodes (ServeRunner, `hybridmemd -runner`) join it over HTTP and
	// sweep/exploration jobs are sharded across them with work-stealing.
	// With no runners attached the coordinator falls back to local
	// execution, so a coordinator with an empty pool behaves exactly like
	// a plain server. Distributed results are byte-identical to local
	// ones (see internal/cluster).
	Coordinator bool
	// ClusterLoopbackRunners attaches that many in-process runners to the
	// coordinator — the no-network distributed mode used by tests and
	// benchmarks. Non-zero implies Coordinator.
	ClusterLoopbackRunners int
	// ClusterShardSize is the number of runs per dispatched shard (<= 0
	// means 8); ClusterMaxInFlight bounds concurrently dispatched shards
	// per runner (<= 0 means 2).
	ClusterShardSize   int
	ClusterMaxInFlight int
	// ClusterHeartbeatTimeout expels runners whose heartbeat lapsed
	// (<= 0 means 10s); ClusterRPCTimeout bounds one shard RPC (<= 0
	// means 5m).
	ClusterHeartbeatTimeout time.Duration
	ClusterRPCTimeout       time.Duration
}

// Serve runs the simulation-as-a-service HTTP server — the long-lived
// front end over Run/RunAll/Explore/ReplayTrace documented in
// internal/serve: content-addressed result caching, singleflight
// deduplication of concurrent identical requests, async jobs with
// streaming progress for sweeps and explorations, and a streaming trace
// upload endpoint.
//
// Serve blocks until ctx is canceled, then drains gracefully (liveness
// flips to 503, new work is rejected, in-flight work finishes up to
// DrainTimeout) and returns nil on a clean drain. cmd/hybridmemd wires
// this to SIGTERM/SIGINT.
func Serve(ctx context.Context, opts ServeOptions) error {
	if opts.Addr == "" {
		opts.Addr = ":8080"
	}
	if opts.DrainTimeout <= 0 {
		opts.DrainTimeout = 30 * time.Second
	}
	if opts.Log == nil {
		opts.Log = slog.New(slog.DiscardHandler)
	}
	// One observability plane serves the whole process: the HTTP layer
	// and the coordinator share its registry (one /metrics), its tracer
	// (job -> batch -> shard -> runner timelines) and its flight
	// recorder.
	o := obs.New(obs.Options{FlightEvents: opts.FlightEvents})
	if opts.DumpEventsOnSIGQUIT {
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		go func() {
			for range quit {
				o.Flight().WriteJSON(os.Stderr)
			}
		}()
		defer signal.Stop(quit)
	}
	// One store serves the whole process: the HTTP layer's documents,
	// its local runs' records and the coordinator's run records share
	// its tiers, so every layer sees every other's warm results.
	sopts := serve.Options{
		CacheEntries:  opts.CacheEntries,
		CacheBytes:    opts.CacheBytes,
		StoreDir:      opts.StoreDir,
		StoreMaxBytes: opts.StoreMaxBytes,
		QueueDepth:    opts.QueueDepth,
		JobHistory:    opts.JobHistory,
		Workers:       opts.Workers,
		Parallelism:   opts.Parallelism,
		StateDir:      opts.StateDir,
		Log:           opts.Log,
		Obs:           o,
	}
	st, err := serve.OpenStore(sopts)
	if err != nil {
		return fmt.Errorf("hybridmem: %w", err)
	}
	sopts.Store = st
	if opts.Coordinator || opts.ClusterLoopbackRunners > 0 {
		sopts.Cluster = cluster.NewCoordinator(cluster.CoordinatorOptions{
			ShardSize:        opts.ClusterShardSize,
			MaxInFlight:      opts.ClusterMaxInFlight,
			HeartbeatTimeout: opts.ClusterHeartbeatTimeout,
			RPCTimeout:       opts.ClusterRPCTimeout,
			LocalParallelism: opts.Parallelism,
			Store:            st,
			Log:              opts.Log,
			Obs:              o,
		})
		if opts.ClusterLoopbackRunners > 0 {
			sopts.Cluster.AttachLoopback(opts.ClusterLoopbackRunners, opts.Parallelism)
		}
	}
	srv, err := serve.New(sopts)
	if err != nil {
		return fmt.Errorf("hybridmem: %w", err)
	}
	// New started the worker pool (and possibly resubmitted recovered
	// jobs); every exit from here on must drain it, or an embedder whose
	// Listen failed (port in use) leaks running simulations.
	shutdown := func() {
		drainCtx, cancel := context.WithTimeout(context.Background(), opts.DrainTimeout)
		defer cancel()
		if err := srv.Shutdown(drainCtx); err != nil {
			opts.Log.Warn("hybridmem: drain failed", "err", err)
		}
	}
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		shutdown()
		return fmt.Errorf("hybridmem: %w", err)
	}
	if opts.OnListen != nil {
		opts.OnListen(ln.Addr().String())
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()

	select {
	case err := <-served:
		// The HTTP server failed outright; drain the job pool before
		// reporting it.
		shutdown()
		return fmt.Errorf("hybridmem: serve: %w", err)
	case <-ctx.Done():
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), opts.DrainTimeout)
	defer cancel()
	// Order matters: flipping the service to draining first makes
	// /healthz answer 503 (load balancers stop routing) and rejects new
	// jobs while the queue empties; only then is the HTTP server told to
	// stop, letting in-flight requests — including SSE streams watching
	// the draining jobs — complete.
	drainErr := srv.Shutdown(drainCtx)
	httpErr := hs.Shutdown(drainCtx)
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("hybridmem: serve: %w", err)
	}
	if drainErr != nil {
		return fmt.Errorf("hybridmem: drain: %w", drainErr)
	}
	if httpErr != nil {
		return fmt.Errorf("hybridmem: drain: %w", httpErr)
	}
	return nil
}

// RunnerOptions configures a cluster runner node started by ServeRunner.
type RunnerOptions struct {
	// Addr is the TCP listen address for shard RPCs and /healthz; empty
	// means "127.0.0.1:0".
	Addr string
	// Join is the coordinator's base URL (e.g. http://host:8080) —
	// required. The runner keeps (re)joining it for as long as it runs.
	Join string
	// Advertise is the URL base the coordinator dials back for shard
	// RPCs; empty derives http://<listen address>. Set it when the
	// runner sits behind NAT or a different routable hostname.
	Advertise string
	// ID names this runner to the coordinator; empty derives it from the
	// listen address.
	ID string
	// Parallelism bounds concurrent simulations per shard; <= 0 means
	// GOMAXPROCS.
	Parallelism int
	// StoreDir, when non-empty, gives the runner a persistent result
	// store: run records are written to its disk tier and repeated runs
	// are answered from it without re-simulating, surviving runner
	// restarts.
	StoreDir string
	// StoreMaxBytes bounds the runner's disk store; <= 0 means
	// unbounded.
	StoreMaxBytes int64
	// Log receives structured operational log records; nil discards
	// them.
	Log *slog.Logger
	// FlightEvents is the capacity of the runner's flight recorder;
	// <= 0 means 4096.
	FlightEvents int
	// OnListen, when non-nil, is called with the bound listen address
	// once the runner accepts connections — useful with ":0" ports.
	OnListen func(addr string)
}

// ServeRunner runs a cluster runner node: it joins the coordinator at
// opts.Join, heartbeats to stay registered, and executes the shard RPCs
// the coordinator dispatches, rejoining automatically if the
// coordinator restarts or drops it. It blocks until ctx is canceled and
// returns nil on clean shutdown. cmd/hybridmemd -runner wires this to
// SIGTERM/SIGINT.
func ServeRunner(ctx context.Context, opts RunnerOptions) error {
	if opts.Join == "" {
		return errors.New("hybridmem: ServeRunner needs a coordinator URL to join")
	}
	err := cluster.ServeNode(ctx, cluster.NodeOptions{
		Addr:          opts.Addr,
		Join:          opts.Join,
		Advertise:     opts.Advertise,
		ID:            opts.ID,
		Parallelism:   opts.Parallelism,
		StoreDir:      opts.StoreDir,
		StoreMaxBytes: opts.StoreMaxBytes,
		Log:           opts.Log,
		Obs:           obs.New(obs.Options{FlightEvents: opts.FlightEvents}),
		OnListen:      opts.OnListen,
	})
	if err != nil {
		return fmt.Errorf("hybridmem: %w", err)
	}
	return nil
}
