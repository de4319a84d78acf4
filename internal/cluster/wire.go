package cluster

import (
	"fmt"

	"hybridmem/internal/api"
	"hybridmem/internal/exp"
	"hybridmem/internal/obs"
	"hybridmem/internal/sim"
)

// ProtoVersion identifies the cluster RPC layout below. Every request
// carries it alongside the api schema and engine versions, and a
// coordinator/runner pair disagreeing on any of the three refuses to
// exchange work: a version-skewed node computing results under different
// engine semantics would silently break the byte-identity guarantee.
const ProtoVersion = 2

// Config is the per-shard simulation configuration shared by every run
// of a batch. The NM:FM ratio is per-run (sweeps mix ratios; DSE
// candidates each carry their own), so it lives on exp.Run, not here.
type Config struct {
	Scale        int    `json:"scale"`
	InstrPerCore uint64 `json:"instr_per_core"`
	Seed         uint64 `json:"seed"`
}

// Run is the older name of exp.Run, the name-keyed run a shard carries.
type Run = exp.Run

// ShardRequest is one unit of dispatched work: a contiguous slice of a
// batch's runs, executed independently by any runner.
type ShardRequest struct {
	Proto  int       `json:"proto"`
	Schema int       `json:"schema"`
	Engine int       `json:"engine"`
	Shard  int       `json:"shard"`
	Config Config    `json:"config"`
	Runs   []exp.Run `json:"runs"`
	// Trace carries the dispatching shard span's identity when the
	// coordinator traces; absent (and ignored by pre-tracing nodes,
	// which decode leniently) otherwise. It never affects outcomes —
	// only the runner's span linkage.
	Trace *api.Trace `json:"trace,omitempty"`
}

// RunOutcome is the result of one run of a shard. Result is the run's
// record — the sim.Result exp.Runner computes and persists locally, in
// the same JSON encoding the store holds — so every document assembled
// from outcomes goes through the same mapping as a local run. A failed
// run has a zero Result and a non-empty Err.
type RunOutcome struct {
	Result sim.Result `json:"result"`
	Err    string     `json:"error,omitempty"`
}

// ShardResponse carries a shard's outcomes back, in the request's run
// order.
type ShardResponse struct {
	Proto int          `json:"proto"`
	Shard int          `json:"shard"`
	Runs  []RunOutcome `json:"runs"`
	// Events echoes the runner-side span events of this shard when the
	// request carried a Trace, so the coordinator can fold them into
	// one distributed timeline; absent otherwise.
	Events []obs.Event `json:"events,omitempty"`
}

// joinRequest registers a runner with the coordinator. Addr is the URL
// base the coordinator dials back for shard RPCs.
type joinRequest struct {
	Proto  int    `json:"proto"`
	Schema int    `json:"schema"`
	Engine int    `json:"engine"`
	ID     string `json:"id"`
	Addr   string `json:"addr"`
}

// joinResponse acknowledges a registration and tells the runner how
// often to heartbeat.
type joinResponse struct {
	OK              bool  `json:"ok"`
	HeartbeatMillis int64 `json:"heartbeat_millis"`
}

// heartbeatRequest keeps a registration live.
type heartbeatRequest struct {
	ID string `json:"id"`
}

// checkVersions rejects cross-version work exchange.
func checkVersions(proto, schema, engine int) error {
	if proto != ProtoVersion || schema != api.SchemaVersion || engine != api.EngineVersion {
		return fmt.Errorf("cluster: version mismatch: peer speaks proto=%d schema=%d engine=%d, this node proto=%d schema=%d engine=%d",
			proto, schema, engine, ProtoVersion, api.SchemaVersion, api.EngineVersion)
	}
	return nil
}
