// Command hybridmemd is the simulation-as-a-service daemon: a long-lived
// HTTP server multiplexing many clients over the simulation engines,
// with a content-addressed result cache, singleflight deduplication,
// async jobs with SSE progress, and streaming trace upload.
//
// Usage:
//
//	hybridmemd                            # listen on :8080, in-memory
//	hybridmemd -addr 127.0.0.1:9090
//	hybridmemd -state /var/lib/hybridmem  # persist jobs and checkpoints; results
//	                                      # and series in the store under state/store
//	hybridmemd -store-dir /var/cache/hybridmem -store-max-bytes 268435456
//	                                      # tiered result store: repeats served
//	                                      # from disk across restarts, GC at 256MB
//
//	hybridmemd -coordinator               # accept runner nodes, shard jobs
//	hybridmemd -runner -join http://coordinator:8080
//
// Endpoints (see internal/serve and the README's Serving section):
//
//	GET  /healthz   GET /metrics   GET /v1/designs   GET /v1/workloads
//	POST /v1/run    POST /v1/sweep POST /v1/explore  POST /v1/replay
//	POST /cluster/v1/join  POST /cluster/v1/heartbeat   (coordinator mode)
//
// In -coordinator mode, sweep and exploration jobs are sharded across
// joined runner nodes with bounded in-flight work per runner,
// work-stealing of straggler shards, and re-dispatch on node loss;
// results are byte-identical to local execution (see internal/cluster).
// With no runners joined, the coordinator executes locally. In -runner
// mode the process serves shard RPCs and /healthz only, joining (and
// rejoining) the coordinator given by -join.
//
// SIGTERM or SIGINT drains gracefully: health flips to 503, new jobs are
// rejected, and in-flight work gets -drain to finish (interrupted
// explorations flush a checkpoint and resume on the next start when
// -state is set). A clean drain exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hybridmem"
)

func main() {
	addr := flag.String("addr", "", "TCP listen address (default :8080 for servers, 127.0.0.1:0 for runners)")
	state := flag.String("state", "", "state directory for job specs and exploration checkpoints; finished results and series live in the result store, at <state>/store unless -store-dir is set (empty: in-memory only)")
	cacheEntries := flag.Int("cache-entries", 1024, "result-cache entry bound")
	cacheMB := flag.Int64("cache-mb", 64, "result-cache byte bound, in MB")
	storeDir := flag.String("store-dir", "", "persistent result-store directory: results are served across restarts without re-simulating (empty: <state>/store, or memory cache only without -state)")
	storeMaxBytes := flag.Int64("store-max-bytes", 0, "on-disk result-store byte bound, garbage-collecting least-recently-used entries (0: unbounded)")
	queue := flag.Int("queue", 64, "async job queue depth")
	workers := flag.Int("workers", 2, "async job workers")
	parallel := flag.Int("parallel", 0, "simulations evaluated concurrently per job (0: all CPUs)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-drain budget on SIGTERM/SIGINT")
	quiet := flag.Bool("quiet", false, "suppress operational logging")
	flightEvents := flag.Int("flight-events", 0, "flight-recorder capacity in trace events, served over /debug/events (0: 4096)")
	sigquitEvents := flag.Bool("sigquit-events", false, "dump the flight recorder to stderr on SIGQUIT instead of the default stack dump (the process keeps running)")

	coordinator := flag.Bool("coordinator", false, "act as a cluster coordinator: shard sweep/exploration jobs across joined runner nodes")
	runner := flag.Bool("runner", false, "act as a cluster runner node: execute shards dispatched by the coordinator at -join")
	join := flag.String("join", "", "coordinator base URL a runner joins (e.g. http://host:8080); required with -runner")
	advertise := flag.String("advertise", "", "URL base the coordinator dials this runner back on (default http://<listen address>)")
	runnerID := flag.String("runner-id", "", "runner name reported to the coordinator (default derived from the listen address)")
	loopback := flag.Int("loopback-runners", 0, "attach N in-process runners to the coordinator (no-network distributed mode; implies -coordinator)")
	shardSize := flag.Int("shard-size", 0, "runs per dispatched shard (0: 8)")
	shardInFlight := flag.Int("shard-inflight", 0, "concurrently dispatched shards per runner (0: 2)")
	heartbeatTimeout := flag.Duration("heartbeat-timeout", 0, "drop runners whose heartbeat lapsed this long (0: 10s)")
	rpcTimeout := flag.Duration("rpc-timeout", 0, "shard RPC deadline (0: 5m)")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if *quiet {
		logger = slog.New(slog.DiscardHandler)
	}
	if *runner && (*coordinator || *loopback > 0) {
		fmt.Fprintln(os.Stderr, "hybridmemd: -runner is exclusive with -coordinator/-loopback-runners")
		os.Exit(2)
	}
	if *runner && *join == "" {
		fmt.Fprintln(os.Stderr, "hybridmemd: -runner needs -join <coordinator URL>")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		logger.Info("signal received; draining", "budget", *drain)
		// Restore default signal handling so a second signal kills the
		// process instead of being swallowed while the drain runs.
		stop()
	}()

	var err error
	if *runner {
		err = hybridmem.ServeRunner(ctx, hybridmem.RunnerOptions{
			Addr:          *addr,
			Join:          *join,
			Advertise:     *advertise,
			ID:            *runnerID,
			Parallelism:   *parallel,
			StoreDir:      *storeDir,
			StoreMaxBytes: *storeMaxBytes,
			Log:           logger,
			FlightEvents:  *flightEvents,
			OnListen:      func(addr string) { logger.Info("runner listening", "addr", addr) },
		})
	} else {
		listen := *addr
		if listen == "" {
			listen = ":8080"
		}
		err = hybridmem.Serve(ctx, hybridmem.ServeOptions{
			Addr:                    listen,
			StateDir:                *state,
			CacheEntries:            *cacheEntries,
			CacheBytes:              *cacheMB << 20,
			StoreDir:                *storeDir,
			StoreMaxBytes:           *storeMaxBytes,
			QueueDepth:              *queue,
			Workers:                 *workers,
			Parallelism:             *parallel,
			DrainTimeout:            *drain,
			Log:                     logger,
			FlightEvents:            *flightEvents,
			DumpEventsOnSIGQUIT:     *sigquitEvents,
			OnListen:                func(addr string) { logger.Info("listening", "addr", addr) },
			Coordinator:             *coordinator,
			ClusterLoopbackRunners:  *loopback,
			ClusterShardSize:        *shardSize,
			ClusterMaxInFlight:      *shardInFlight,
			ClusterHeartbeatTimeout: *heartbeatTimeout,
			ClusterRPCTimeout:       *rpcTimeout,
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hybridmemd:", err)
		os.Exit(1)
	}
	logger.Info("drained cleanly")
}
