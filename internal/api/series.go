package api

import (
	"strconv"

	"hybridmem/internal/sim"
	"hybridmem/internal/telemetry"
)

// SeriesSchemaVersion identifies the layout of the time-series
// documents below (RunSeries, SweepSeries), versioned independently of
// the headline result schema so the epoch field set can evolve without
// invalidating result documents. The epoch, phase and series layouts
// are the JSON tags of the internal/telemetry types aliased below, in
// their struct order, pinned by the golden test in this package;
// changing them is a schema change and must bump this constant.
const SeriesSchemaVersion = 2

// Epoch is the wire form of one telemetry sampling window: deltas of
// the simulator's counters between two consecutive epoch boundaries
// plus the derived rates.
type Epoch = telemetry.Epoch

// SeriesPhase is the wire form of one phase of the change-point
// segmentation summary.
type SeriesPhase = telemetry.Phase

// Series is the wire form of one run's telemetry series.
type Series = telemetry.Series

// FromSeries returns a telemetry series as a wire document whose epoch
// and phase lists encode as arrays, never null. A nil series maps to an
// empty document (zero window, no epochs), so callers need no guards.
func FromSeries(ts *telemetry.Series) Series {
	var out Series
	if ts != nil {
		out = *ts
	}
	if out.Epochs == nil {
		out.Epochs = []Epoch{}
	}
	if out.Phases == nil {
		out.Phases = []SeriesPhase{}
	}
	return out
}

// RunSeries is the top-level document of a single sampled run: the
// headline result (identical bytes to the plain Run document's result
// field — telemetry is passive) plus its epoch series.
type RunSeries struct {
	Schema       int    `json:"schema"`
	SeriesSchema int    `json:"series_schema"`
	Result       Result `json:"result"`
	Series       Series `json:"series"`
}

// NewRunSeries wraps a sampled run as a versioned document.
func NewRunSeries(sr sim.Result, ts *telemetry.Series) RunSeries {
	return RunSeries{
		Schema:       SchemaVersion,
		SeriesSchema: SeriesSchemaVersion,
		Result:       FromSim(sr),
		Series:       FromSeries(ts),
	}
}

// SweepSeriesEntry is one run's series within a sweep document,
// identified the way sweep results are.
type SweepSeriesEntry struct {
	Design   string `json:"design"`
	Workload string `json:"workload"`
	Series   Series `json:"series"`
}

// SweepSeries is the top-level document of a sweep's telemetry: one
// entry per run in the sweep's design-major, workload-minor order.
// Partial marks a document rendered mid-sweep (entries for unfinished
// runs are empty); the settled document omits it.
type SweepSeries struct {
	Schema       int                `json:"schema"`
	SeriesSchema int                `json:"series_schema"`
	Partial      bool               `json:"partial,omitempty"`
	Entries      []SweepSeriesEntry `json:"entries"`
}

// seriesCSVHeader is the column order of SeriesCSV, matching the Epoch
// wire field order.
const seriesCSVHeader = "epoch,end_instr,end_cycle,instr,cycles,ipc,llc_accesses,llc_misses,mpki,requests,nm_hit_frac,nm_traffic_bytes,fm_traffic_bytes,meta_nm_bytes,demand_bytes,fill_bytes,writeback_bytes,migration_bytes,migrations,evictions,wasted_frac,lat_count,lat_mean,lat_p50,lat_p99\n"

// SeriesCSV renders a series' epochs as CSV, one row per epoch, with
// the same deterministic float formatting everywhere ('g', shortest
// round-trip form).
func SeriesCSV(s Series) []byte {
	buf := make([]byte, 0, 64+len(s.Epochs)*128)
	buf = append(buf, seriesCSVHeader...)
	for _, e := range s.Epochs {
		buf = strconv.AppendInt(buf, int64(e.Index), 10)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, e.EndInstr, 10)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, e.EndCycle, 10)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, e.Instr, 10)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, e.Cycles, 10)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, e.IPC, 'g', -1, 64)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, e.LLCAccesses, 10)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, e.LLCMisses, 10)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, e.MPKI, 'g', -1, 64)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, e.Requests, 10)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, e.NMHitFrac, 'g', -1, 64)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, e.NMTrafficBytes, 10)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, e.FMTrafficBytes, 10)
		buf = append(buf, ',')
		for _, v := range [...]uint64{e.MetaNMBytes, e.DemandBytes, e.FillBytes, e.WritebackBytes, e.MigrationBytes} {
			buf = strconv.AppendUint(buf, v, 10)
			buf = append(buf, ',')
		}
		buf = strconv.AppendUint(buf, e.Migrations, 10)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, e.Evictions, 10)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, e.WastedFrac, 'g', -1, 64)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, e.LatCount, 10)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, e.LatMean, 'g', -1, 64)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, e.LatP50, 10)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, e.LatP99, 10)
		buf = append(buf, '\n')
	}
	return buf
}
