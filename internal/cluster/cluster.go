// Package cluster is the distributed execution plane: it shards batches
// of content-addressed run specs across runner nodes so sweeps and
// design-space explorations scale past one machine, while every document
// the cluster produces stays byte-identical to a single-process run.
//
// # Roles and protocol
//
// A *coordinator* owns the work: it settles every run of a batch that
// its result store already holds, cuts the rest into fixed-size shards,
// dispatches them to registered runners over HTTP, persists each
// outcome, and merges everything back into input order. A *runner* is a
// stateless executor: it joins a coordinator, heartbeats to stay live,
// and answers shard RPCs by running the simulations through the same
// internal/exp engine a local process would use. Each outcome travels as
// the run's sim.Result record, the value a local run computes, and
// every RPC carries the protocol, schema and engine versions (a mismatch
// refuses the call), so a result computed remotely is the exact record
// a local run would produce.
//
//	runner  -> coordinator   POST /cluster/v1/join       {id, addr}
//	runner  -> coordinator   POST /cluster/v1/heartbeat  {id}
//	coordinator -> runner    POST /cluster/v1/shard      ShardRequest -> ShardResponse
//	anyone  -> runner        GET  /healthz               attachment report
//
// # Dispatch, work-stealing and the failure model
//
// Dispatch is pull-based under the hood: every live runner gets
// MaxInFlight worker slots that repeatedly take the next pending shard.
// Fast runners therefore drain the queue faster — that is the common
// case of work-stealing. When the pending queue is empty but shards are
// still in flight on other runners (the straggler tail), an idle runner
// *steals* one: it speculatively re-executes a shard already running
// elsewhere (bounded by MaxSteals concurrent executions per shard), and
// the first response to arrive wins — duplicates are discarded, which is
// sound because simulations are deterministic functions of the request.
//
// Failures are handled at two levels. A failed or timed-out shard RPC
// requeues the shard (with backoff) and counts against its attempt
// budget; a runner that fails several RPCs in a row — or misses
// heartbeats past HeartbeatTimeout — is dropped from the pool and its
// in-flight shards are re-dispatched to the survivors. The coordinator
// itself executes shards whenever no runner is live, so a cluster that
// has no node, or loses every node, degrades to exactly the
// single-process behaviour instead of stalling.
//
// # Persistence
//
// The unit of persistence is the run. A run's record lives in the
// result store under its run key (exp.Runner.RunKey, over
// store.RunKey), the key every local run uses too, so the coordinator
// and the in-process engine read and write one set of records. Before
// dispatch the coordinator settles each run whose record exists; after
// dispatch it persists each successful outcome. A batch re-run after
// node loss or a coordinator restart therefore dispatches exactly the
// runs no earlier batch or local run has completed, however its shards
// are cut.
//
// # Determinism
//
// Every simulation is a deterministic function of (design, workload,
// config, seed), so re-execution, duplication and re-ordering of RPCs
// cannot change any individual outcome. The coordinator writes every
// outcome back to its run's input position, so the merged result — and
// any document encoded from it — is byte-identical to a single-process
// run no matter how shards were scheduled, retried, stolen, recovered
// or settled from the store. Distributed design-space exploration keeps all
// search state (RNG, frontier, trails, checkpoints) on the coordinator
// and distributes only the embarrassingly parallel evaluations, so
// frontier folds happen in the same order as a local search; the merge
// identity frontier(shard frontiers) == frontier(union) is pinned by a
// property test in internal/dse.
//
// # Loopback mode
//
// AttachLoopback registers N in-process runners whose transport is a
// direct function call. Tests, benchmarks and the public
// ExploreOptions.LoopbackRunners knob use it to exercise the entire
// dispatch plane — sharding, stealing, retry, merge — without a network.
package cluster

import (
	"log/slog"
	"time"

	"hybridmem/internal/obs"
	"hybridmem/internal/store"
)

// CoordinatorOptions tunes the dispatch plane. The zero value of every
// field has a usable default.
type CoordinatorOptions struct {
	// ShardSize is the number of runs per dispatched shard; <= 0 means 8.
	// Smaller shards spread better and re-dispatch cheaper; larger shards
	// amortize RPC overhead.
	ShardSize int
	// MaxInFlight bounds the shards concurrently in flight per runner
	// (each in-flight shard occupies one worker slot); <= 0 means 2.
	MaxInFlight int
	// MaxSteals bounds how many *additional* concurrent executions of an
	// in-flight shard idle runners may start (speculative re-execution of
	// the straggler tail); < 0 disables stealing. 0 means the default 1.
	MaxSteals int
	// HeartbeatInterval is the cadence advertised to joining runners;
	// <= 0 means 2s.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is the liveness window: a runner silent for longer
	// is dropped and its shards re-dispatched; <= 0 means 10s.
	HeartbeatTimeout time.Duration
	// RPCTimeout bounds one shard call; <= 0 means 5m (a shard of slow
	// full-fidelity runs is legitimate work, not a hang).
	RPCTimeout time.Duration
	// MaxAttempts bounds dispatch attempts per shard before the whole
	// batch fails; <= 0 means 8.
	MaxAttempts int
	// RetryBackoff is the base delay a worker sleeps after a failed RPC,
	// scaled by its consecutive-failure count; <= 0 means 100ms.
	RetryBackoff time.Duration
	// FailuresToDrop is how many consecutive RPC failures expel a runner
	// from the pool; <= 0 means 3.
	FailuresToDrop int
	// LocalParallelism bounds the in-process fallback executor's
	// concurrent simulations; <= 0 means GOMAXPROCS.
	LocalParallelism int
	// Store, when it has a disk tier, holds the batch's run records: runs
	// whose record exists settle without dispatch, and every successful
	// outcome is persisted under its run key — the record exp.Runner
	// reads and writes for the same run. Run keys fold in the engine and
	// schema versions, so version bumps invalidate persisted runs rather
	// than serving stale results. Loopback runners and the local
	// fallback do not use it; the coordinator is its one reader and
	// writer for clustered work.
	Store *store.Store
	// Log receives structured operational log records; nil discards
	// them.
	Log *slog.Logger
	// Obs, when non-nil, hooks the coordinator into the shared
	// observability plane: batches and shards become spans in its
	// flight recorder, phase timers land in its registry, and events
	// echoed by remote runners are folded in. Dispatch counters are
	// published separately via RegisterMetrics (the serving layer calls
	// it with the registry backing /metrics). nil keeps the coordinator
	// fully passive.
	Obs *obs.Obs
}

func (o CoordinatorOptions) withDefaults() CoordinatorOptions {
	if o.ShardSize <= 0 {
		o.ShardSize = 8
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 2
	}
	switch {
	case o.MaxSteals < 0:
		o.MaxSteals = 0
	case o.MaxSteals == 0:
		o.MaxSteals = 1
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 2 * time.Second
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 10 * time.Second
	}
	if o.RPCTimeout <= 0 {
		o.RPCTimeout = 5 * time.Minute
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 8
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 100 * time.Millisecond
	}
	if o.FailuresToDrop <= 0 {
		o.FailuresToDrop = 3
	}
	if o.Log == nil {
		o.Log = slog.New(slog.DiscardHandler)
	}
	return o
}
