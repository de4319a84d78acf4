// Package api defines the versioned JSON wire encoding of simulation
// results shared by every machine-readable surface of the repository:
// cmd/experiments -runjson/-sweepjson, cmd/dse -json, and the
// internal/serve HTTP service. One encoding, one field order, one schema
// version — results produced through the server are byte-identical to
// the equivalent CLI invocation, and a schema change is a deliberate,
// versioned event rather than drift.
//
// Every top-level document carries a "schema" field (SchemaVersion).
// Field order is the struct order below and is pinned by the golden test
// in this package; changing it, renaming a tag, or adding a field is a
// schema change and must bump SchemaVersion.
package api

import (
	"encoding/json"

	"hybridmem/internal/sim"
)

// SchemaVersion identifies the JSON document layout below. Consumers
// should reject documents whose schema field they do not know.
const SchemaVersion = 1

// EngineVersion identifies the result-producing simulation engine. It is
// folded into every content-addressed request fingerprint of the serve
// layer, so cached results never survive a change to the simulator's
// behaviour. Bump it whenever simulation output changes for identical
// inputs, or the layout of a persisted result record changes (version 2:
// per-class traffic counters).
const EngineVersion = 2

// Config is the wire form of a simulation configuration.
type Config struct {
	Scale        int    `json:"scale"`
	NMRatio16    int    `json:"nm_ratio16"`
	InstrPerCore uint64 `json:"instr_per_core"`
	Seed         uint64 `json:"seed"`
}

// Result is the wire form of one simulation run's measurements. It
// mirrors the public hybridmem.Result field for field.
type Result struct {
	Workload       string  `json:"workload"`
	Design         string  `json:"design"`
	Cycles         uint64  `json:"cycles"`
	Instructions   uint64  `json:"instructions"`
	IPC            float64 `json:"ipc"`
	MPKI           float64 `json:"mpki"`
	Requests       uint64  `json:"requests"`
	ServedNMFrac   float64 `json:"served_nm_frac"`
	NMTrafficBytes uint64  `json:"nm_traffic_bytes"`
	FMTrafficBytes uint64  `json:"fm_traffic_bytes"`
	MetaNMBytes    uint64  `json:"meta_nm_bytes"`
	Migrations     uint64  `json:"migrations"`
	EnergyNanoJ    float64 `json:"energy_nj"`
}

// FromSim converts an internal simulation result to the wire form — the
// single mapping every encoder (CLI and server) goes through.
func FromSim(sr sim.Result) Result {
	return Result{
		Workload:       sr.Workload,
		Design:         sr.Design,
		Cycles:         uint64(sr.Cycles),
		Instructions:   sr.Instructions,
		IPC:            sr.IPC,
		MPKI:           sr.MPKI,
		Requests:       sr.Mem.Requests,
		ServedNMFrac:   sr.ServedNMFrac(),
		NMTrafficBytes: sr.Mem.NMTraffic(),
		FMTrafficBytes: sr.Mem.FMTraffic(),
		MetaNMBytes:    sr.Mem.MetaNMBytes,
		Migrations:     sr.Mem.Migrations,
		EnergyNanoJ:    sr.DynamicEnergyNJ(),
	}
}

// Run is the top-level document of a single simulation run.
type Run struct {
	Schema int    `json:"schema"`
	Result Result `json:"result"`
}

// NewRun wraps one simulation result as a versioned document.
func NewRun(sr sim.Result) Run {
	return Run{Schema: SchemaVersion, Result: FromSim(sr)}
}

// Sweep is the top-level document of a (design × workload) sweep, in the
// sweep's design-major, workload-minor order.
type Sweep struct {
	Schema  int      `json:"schema"`
	Results []Result `json:"results"`
}

// NewSweep wraps a sweep's results as a versioned document.
func NewSweep(srs []sim.Result) Sweep {
	out := Sweep{Schema: SchemaVersion, Results: make([]Result, len(srs))}
	for i, sr := range srs {
		out.Results[i] = FromSim(sr)
	}
	return out
}

// ExplorePoint is the wire form of one evaluated candidate of a
// design-space exploration (see internal/dse.Point).
type ExplorePoint struct {
	Design string `json:"design"`
	// Speedup is the geometric-mean speedup over the no-NM baseline
	// across the evaluated workloads (maximized by the search).
	Speedup float64 `json:"speedup"`
	// CapacityMB is the paper-scale DRAM capacity the design spends:
	// its cacheMB parameter when the family has one, the full near
	// memory otherwise (minimized).
	CapacityMB float64 `json:"capacity_mb"`
	// TrafficGB is the mean write traffic per run — all NM and FM
	// write bytes combined, including demand writes, fills, migrations,
	// writebacks and metadata — in GB (minimized).
	TrafficGB float64 `json:"traffic_gb"`
	// Infeasible marks a candidate that failed to build or run at the
	// simulated scale; Err carries the reason.
	Infeasible bool   `json:"infeasible,omitempty"`
	Err        string `json:"error,omitempty"`
}

// Explore is the top-level document of a design-space exploration:
// the Pareto frontier in reporting order and the full evaluation trail.
type Explore struct {
	Schema    int            `json:"schema"`
	Frontier  []ExplorePoint `json:"frontier"`
	Evaluated []ExplorePoint `json:"evaluated"`
	SpaceSize int            `json:"space_size"`
	Batches   int            `json:"batches"`
}

// Trace is the optional wire trace context of a cluster RPC: the
// coordinator stamps the shard's span identity onto the request so the
// runner can continue the same distributed trace. Both fields are
// omitted entirely when tracing is disabled, keeping the wire bytes
// identical to an uninstrumented build.
type Trace struct {
	TraceID string `json:"trace_id,omitempty"`
	SpanID  string `json:"span_id,omitempty"`
}

// Table is the top-level document of one experiment artifact (a figure
// or table of the paper's evaluation) as emitted by cmd/experiments.
type Table struct {
	Schema int        `json:"schema"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// Encode renders a document in the canonical form every surface emits:
// two-space indentation and a trailing newline. Byte-level comparisons
// (the CI server-vs-CLI diff, the golden schema test) depend on every
// producer using exactly this encoder.
func Encode(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
