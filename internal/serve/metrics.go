package serve

import (
	"encoding/json"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"hybridmem/internal/api"
	"hybridmem/internal/obs"
	"hybridmem/internal/telemetry"
)

// metrics is the server's face of the shared observability plane: every
// operational counter, gauge and latency summary lives in one
// obs.Registry, which also renders /metrics. Directly-updated handles
// are registered here once; statistics owned elsewhere — store tiers,
// queue depths, cluster dispatch counters — fold in as func-backed
// families read at scrape time, so the owners stay the single source of
// truth and there is exactly one rendering path.
type metrics struct {
	reg *obs.Registry

	requests *obs.CounterVec   // hybridmem_http_requests_total{path}
	latency  *obs.HistogramVec // hybridmem_http_request_duration_us{path}

	jobsDone     *obs.Counter
	jobsFailed   *obs.Counter
	flightShared *obs.Counter
	inflightSims *obs.Gauge

	// Per-phase request timers, children of the process-wide phase
	// family (obs.PhaseHist) shared with the cluster layer.
	phaseCanon  *obs.Histogram
	phaseLookup *obs.Histogram
	phaseSim    *obs.Histogram

	// Epoch telemetry bridge: every epoch closed by a sampled run on
	// this server bumps the counter and becomes the hybridmem_sim_epoch_*
	// family's snapshot — "what is the simulation doing right now", the
	// scrape-time face of the full time-series documents.
	epochsTotal *obs.Counter
	epochMu     sync.Mutex
	lastEpoch   telemetry.Epoch
}

// newMetrics registers the server's metric families on its observability
// plane's registry. With a disabled plane (obs.Nop) the registry is nil,
// every handle comes back nil, and all updates are allocation-free
// no-ops. s.store and s.opts must be set; s.jobs need not exist yet
// (the queue gauges read it at scrape time).
func newMetrics(s *Server) *metrics {
	r := s.opts.Obs.Registry()
	m := &metrics{reg: r}

	start := time.Now()
	r.GaugeFunc("hybridmem_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(start).Seconds() })
	r.GaugeFunc("hybridmem_draining", "1 while the server drains for shutdown, 0 otherwise.",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})

	// The hybridmem_cache_* family is the store's memory tier, keeping
	// the names stable across the move into internal/store.
	r.CounterFunc("hybridmem_cache_hits_total", "Result documents served from the store's memory tier.",
		func() float64 { return float64(s.store.Stats().MemHits) })
	r.CounterFunc("hybridmem_cache_misses_total", "Result lookups that missed the store's memory tier.",
		func() float64 { return float64(s.store.Stats().MemMisses) })
	r.CounterFunc("hybridmem_cache_evictions_total", "Entries evicted from the store's memory tier.",
		func() float64 { return float64(s.store.Stats().MemEvictions) })
	r.GaugeFunc("hybridmem_cache_entries", "Entries resident in the store's memory tier.",
		func() float64 { return float64(s.store.Stats().MemEntries) })
	r.GaugeFunc("hybridmem_cache_bytes", "Bytes resident in the store's memory tier.",
		func() float64 { return float64(s.store.Stats().MemBytes) })
	r.GaugeFunc("hybridmem_cache_capacity_bytes", "Configured byte bound of the memory tier.",
		func() float64 { return float64(s.opts.CacheBytes) })
	r.GaugeFunc("hybridmem_cache_capacity_entries", "Configured entry bound of the memory tier.",
		func() float64 { return float64(s.opts.CacheEntries) })
	r.GaugeFunc("hybridmem_cache_hit_ratio", "Memory-tier hits over lookups; 0 before any lookup.",
		func() float64 {
			cs := s.store.Stats()
			total := cs.MemHits + cs.MemMisses
			if total == 0 {
				return 0
			}
			return float64(cs.MemHits) / float64(total)
		})
	if s.store.HasDisk() {
		r.CounterFunc("hybridmem_store_disk_hits_total", "Result documents served from the store's disk tier.",
			func() float64 { return float64(s.store.Stats().DiskHits) })
		r.CounterFunc("hybridmem_store_disk_misses_total", "Result lookups that missed the disk tier too.",
			func() float64 { return float64(s.store.Stats().DiskMisses) })
		r.CounterFunc("hybridmem_store_disk_evictions_total", "Entries garbage-collected from the disk tier.",
			func() float64 { return float64(s.store.Stats().DiskEvictions) })
		r.CounterFunc("hybridmem_store_corrupt_discarded_total", "Disk entries discarded for checksum or decode failures.",
			func() float64 { return float64(s.store.Stats().DiskCorrupt) })
		r.GaugeFunc("hybridmem_store_disk_entries", "Files in the disk tier: those a bounded tier tracks, or for an unbounded one the directory at open plus files this process created, less corrupt ones it discarded.",
			func() float64 { return float64(s.store.Stats().DiskEntries) })
		r.GaugeFunc("hybridmem_store_disk_bytes", "Bytes of the files hybridmem_store_disk_entries counts.",
			func() float64 { return float64(s.store.Stats().DiskBytes) })
		r.GaugeFunc("hybridmem_store_disk_capacity_bytes", "Configured byte bound of the disk tier; 0 means unbounded.",
			func() float64 { return float64(s.opts.StoreMaxBytes) })
	}

	r.CounterFunc("hybridmem_sims_total",
		"Engine simulations actually executed (memo, store and singleflight hits excluded).",
		func() float64 {
			n := s.sims.Value()
			if c := s.opts.Cluster; c != nil {
				n += c.Sims() // the coordinator's loopback and local-fallback executors
			}
			return float64(n)
		})
	m.flightShared = r.Counter("hybridmem_singleflight_shared_total",
		"Requests that shared another in-flight identical simulation's result.")
	m.inflightSims = r.Gauge("hybridmem_inflight_sims",
		"Simulations currently executing on behalf of requests and jobs.")

	jobsGauge := func(name, help string, read func(m *jobManager) int) {
		r.GaugeFunc(name, help, func() float64 {
			if s.jobs == nil {
				return 0
			}
			return float64(read(s.jobs))
		})
	}
	jobsGauge("hybridmem_jobs_queue_depth", "Jobs queued but not yet running.", func(m *jobManager) int { return len(m.queue) })
	jobsGauge("hybridmem_jobs_queue_capacity", "Configured bound of the job queue.", func(m *jobManager) int { return cap(m.queue) })
	jobsGauge("hybridmem_jobs_running", "Jobs currently executing on the worker pool.", func(m *jobManager) int { return int(m.running.Load()) })
	jobs := r.CounterVec("hybridmem_jobs_total", "Settled jobs by outcome.", "state")
	m.jobsDone = jobs.With("done")
	m.jobsFailed = jobs.With("failed")

	m.requests = r.CounterVec("hybridmem_http_requests_total", "Requests served, by route.", "path")
	m.latency = r.HistogramVec("hybridmem_http_request_duration_us",
		"Request latency in microseconds, by route.", "path")

	phases := obs.PhaseHist(r)
	m.phaseCanon = phases.With("canonicalize")
	m.phaseLookup = phases.With("store_lookup")
	m.phaseSim = phases.With("simulate")

	// Build identity: a constant-1 gauge whose labels carry the wire
	// schema versions and toolchain, the conventional shape for joining
	// version info onto every other series of a scrape.
	r.GaugeSamplesFunc("hybridmem_build_info",
		"Constant 1; labels identify the engine and schema versions and the Go toolchain.",
		[]string{"engine_version", "schema_version", "go_version"},
		func() []obs.Sample {
			return []obs.Sample{{
				Labels: []string{strconv.Itoa(api.EngineVersion), strconv.Itoa(api.SchemaVersion), runtime.Version()},
				Value:  1,
			}}
		})

	m.epochsTotal = r.Counter("hybridmem_sim_epochs_total",
		"Telemetry epochs closed by sampled simulations on this server.")
	lastEpoch := func(read func(e telemetry.Epoch) float64) func() float64 {
		return func() float64 {
			m.epochMu.Lock()
			defer m.epochMu.Unlock()
			return read(m.lastEpoch)
		}
	}
	r.GaugeFunc("hybridmem_sim_epoch_index", "Index of the most recently closed telemetry epoch.",
		lastEpoch(func(e telemetry.Epoch) float64 { return float64(e.Index) }))
	r.GaugeFunc("hybridmem_sim_epoch_ipc", "IPC of the most recently closed telemetry epoch.",
		lastEpoch(func(e telemetry.Epoch) float64 { return e.IPC }))
	r.GaugeFunc("hybridmem_sim_epoch_mpki", "LLC MPKI of the most recently closed telemetry epoch.",
		lastEpoch(func(e telemetry.Epoch) float64 { return e.MPKI }))
	r.GaugeFunc("hybridmem_sim_epoch_nm_hit_frac", "Near-memory service fraction of the most recently closed telemetry epoch.",
		lastEpoch(func(e telemetry.Epoch) float64 { return e.NMHitFrac }))
	r.GaugeFunc("hybridmem_sim_epoch_wasted_frac", "Wasted-fetch fraction of the most recently closed telemetry epoch.",
		lastEpoch(func(e telemetry.Epoch) float64 { return e.WastedFrac }))
	r.GaugeFunc("hybridmem_sim_epoch_migrations", "Migrations within the most recently closed telemetry epoch.",
		lastEpoch(func(e telemetry.Epoch) float64 { return float64(e.Migrations) }))
	r.GaugeFunc("hybridmem_sim_epoch_evictions", "Evictions within the most recently closed telemetry epoch.",
		lastEpoch(func(e telemetry.Epoch) float64 { return float64(e.Evictions) }))
	return m
}

// noteEpoch folds one closed epoch into the scrape-time telemetry
// family. Concurrent sampled runs interleave here; the gauges always
// describe one coherent epoch (the last writer's), never a blend.
func (m *metrics) noteEpoch(e telemetry.Epoch) {
	m.epochsTotal.Inc()
	m.epochMu.Lock()
	m.lastEpoch = e
	m.epochMu.Unlock()
}

// instrument wraps a handler so each request is counted, timed into the
// route's latency summary, and — when tracing is on — executed under an
// http_request span carried by the request context.
func (s *Server) instrument(label string, h http.HandlerFunc) http.HandlerFunc {
	count := s.metrics.requests.With(label)
	lat := s.metrics.latency.With(label)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if sp := s.opts.Obs.Tracer().StartSpan("http_request", obs.String("path", label)); sp != nil {
			defer sp.End()
			r = r.WithContext(obs.ContextWithSpan(r.Context(), sp))
		}
		h(w, r)
		count.Inc()
		lat.ObserveDuration(time.Since(start))
	}
}

// handleMetrics renders the registry as canonical Prometheus text
// exposition (version 0.0.4).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.reg.WritePrometheus(w)
}

// handleDebugEvents dumps the flight recorder — the bounded ring of
// recent span events — as one JSON document. ?span=NAME keeps only
// events of that span or event name; ?n=N keeps only the last N of
// whatever survives the filter. "total" always reports how many events
// were ever recorded, so a truncated dump says what it omits.
func (s *Server) handleDebugEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	span := q.Get("span")
	n := -1
	if raw := q.Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, "n must be a non-negative integer, got %q", raw)
			return
		}
		n = v
	}
	w.Header().Set("Content-Type", "application/json")
	fl := s.opts.Obs.Flight()
	if span == "" && n < 0 {
		fl.WriteJSON(w)
		return
	}
	events := fl.Snapshot()
	if span != "" {
		kept := make([]obs.Event, 0, len(events))
		for _, e := range events {
			if e.Name == span {
				kept = append(kept, e)
			}
		}
		events = kept
	}
	if n >= 0 && len(events) > n {
		events = events[len(events)-n:]
	}
	if events == nil {
		events = []obs.Event{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct {
		Total  uint64      `json:"total"`
		Events []obs.Event `json:"events"`
	}{Total: fl.Total(), Events: events})
}
