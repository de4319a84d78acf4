// Package serve is the simulation-as-a-service layer: a long-lived,
// stdlib-only HTTP server multiplexing many concurrent clients over the
// batch engines (internal/exp, internal/dse, internal/trace) so the
// common case — somebody asking for a result the fleet has already
// computed — never re-simulates.
//
// # Request lifecycle
//
// Every request is canonicalized into a content-addressed fingerprint:
// SHA-256 over the request kind, the engine and schema versions
// (internal/api), the design/workload selection and the full simulation
// configuration. The fingerprint drives three layers of deduplication:
//
//   - the tiered result store (internal/store: a memory LRU over an
//     optional checksummed on-disk tier) serves repeats without
//     touching the engines — across restarts when a store directory is
//     configured;
//   - a singleflight layer collapses concurrent identical in-flight
//     requests into one simulation whose result every caller shares;
//   - the job queue reuses the fingerprint as the job ID, so identical
//     sweeps or explorations submitted twice are one job.
//
// Below the document level, every runner the server creates shares the
// same store, so even a novel sweep reuses the individual runs past
// requests already simulated.
//
// Results are deterministic (same fingerprint, same bytes — the property
// the cache depends on), and the encoded documents are the shared wire
// schema of internal/api, byte-identical to the equivalent
// cmd/experiments or cmd/dse invocation.
//
// # Endpoints
//
//	GET  /healthz              liveness (503 while draining)
//	GET  /metrics              text-format counters and latency histograms
//	GET  /v1/designs           the design registry (name, grammar, kind)
//	GET  /v1/workloads         the built-in workload names
//	POST /v1/run               one (design, workload) run — synchronous;
//	                           ?series=1 adds epoch telemetry to the response
//	POST /v1/sweep             designs × workloads sweep — async job; a
//	                           "series" object in the body enables telemetry
//	POST /v1/explore           design-space exploration — async job
//	POST /v1/replay            trace replay; the request body IS the trace
//	GET  /v1/jobs/{id}         job state
//	GET  /v1/jobs/{id}/events  progress stream (server-sent events; sampled
//	                           sweeps interleave live "epoch" events)
//	GET  /v1/jobs/{id}/result  the finished job's result document
//	GET  /v1/jobs/{id}/series  a sampled sweep's telemetry time-series
//	                           document (partial while the sweep runs)
//
// The result endpoint answers 200 once the job is done, 409 while it is
// queued or running, 500 if it failed, 404 for an unknown or retired
// job, and 410 if a memory-only (or byte-bounded) store has evicted the
// document (resubmitting recomputes the same bytes). The series endpoint
// answers alike, but 200 with a partial document while a sampled sweep
// runs and 404 for a job without series options.
//
// Sweeps and explorations run asynchronously through a bounded job
// queue and worker pool: POST returns a job ID, progress streams over
// SSE (wired to exp's sweep progress hook and dse's batch events), and
// the result document is fetched when the job settles. The trace upload
// path streams the request body straight into the trace decoder
// (internal/trace) — a multi-gigabyte capture replays in constant
// memory and is never buffered.
//
// # Persistence and drain
//
// The result store is the only copy of every result: run documents,
// job result documents (keyed by job ID) and sampled sweeps' settled
// series documents all live there, and a job record holds only the
// job's state. With Options.StateDir set, submitted
// job requests persist to that directory, explorations checkpoint there
// through the internal/dse checkpoint path after every batch, and the
// store gets a disk tier under it unless one is configured explicitly.
// A restarted server adopts finished jobs from the store and resubmits
// unfinished ones; an interrupted exploration resumes from its
// checkpoint instead of starting over. Shutdown drains gracefully:
// health flips to 503, new work is rejected, queued and running jobs
// finish (until the drain deadline, which cancels them — explorations
// flush a final checkpoint), and in-flight HTTP requests complete.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"hybridmem/internal/api"
	"hybridmem/internal/cluster"
	"hybridmem/internal/config"
	"hybridmem/internal/design"
	_ "hybridmem/internal/design/all" // link every built-in organization into the registry
	"hybridmem/internal/dse"
	"hybridmem/internal/exp"
	"hybridmem/internal/obs"
	"hybridmem/internal/sim"
	"hybridmem/internal/store"
	"hybridmem/internal/telemetry"
	"hybridmem/internal/workload"
)

// Fixed request and retention bounds of every Server.
const (
	// maxRequestBytes bounds request bodies on the JSON endpoints. The
	// trace-replay body is exempt: traces stream and may be arbitrarily
	// large.
	maxRequestBytes = 1 << 20
	// maxInstrPerCore caps the per-core instruction budget a request may
	// ask for, so one request cannot pin the CPUs indefinitely (the
	// paper's runs use 1M).
	maxInstrPerCore = 64 << 20
	// maxSeriesEpochs caps a request's epoch ring (max_epochs): the
	// sampler preallocates the whole ring, about 200 B per epoch.
	maxSeriesEpochs = 1 << 16
)

// Options configures a Server. The zero value of every field has a
// usable default.
type Options struct {
	// CacheEntries and CacheBytes bound the result store's memory tier;
	// <= 0 means 1024 entries and 64 MB.
	CacheEntries int
	CacheBytes   int64
	// Store, when non-nil, is a pre-opened result store shared with
	// other components (hybridmem.Serve opens one store for the server
	// and its cluster coordinator). When nil, New opens a store from
	// CacheEntries/CacheBytes and, if StoreDir is set, a disk tier
	// there.
	Store *store.Store
	// StoreDir enables the result store's disk tier: result documents
	// and per-run records persist there, content-addressed and
	// checksummed, and repeats are served across restarts — and across
	// any processes sharing the directory — without re-simulating.
	// Empty means <StateDir>/store when StateDir is set and a
	// memory-only store otherwise. Ignored when Store is set.
	StoreDir string
	// StoreMaxBytes bounds the disk tier; beyond it the least-recently
	// used entries are garbage-collected. <= 0 means unbounded. Ignored
	// when Store is set.
	StoreMaxBytes int64
	// QueueDepth bounds queued-but-not-running jobs (<= 0 means 64);
	// a full queue rejects submissions with 503 rather than blocking.
	QueueDepth int
	// Workers is the job worker-pool size; <= 0 means 2. Each job
	// additionally fans its simulations out across Parallelism runner
	// workers (<= 0 means GOMAXPROCS).
	Workers     int
	Parallelism int
	// JobHistory bounds the settled jobs that stay addressable (status
	// and result endpoints). Beyond it the oldest settled jobs are
	// retired, index and persisted state both. <= 0 means 4096 jobs.
	JobHistory int
	// StateDir enables persistence: job specs and exploration
	// checkpoints are written there, while finished results and series
	// live in the result store, whose disk tier defaults to
	// <StateDir>/store. Empty keeps job state in memory.
	StateDir string
	// MaxSyncSims bounds simulations running inline in synchronous
	// handlers (/v1/run misses, /v1/replay) — the synchronous
	// counterpart of the job queue's bound; excess requests get 503.
	// <= 0 means 2 × GOMAXPROCS.
	MaxSyncSims int
	// Cluster, when non-nil, makes this server a coordinator: sweeps and
	// explorations shard across the coordinator's runner pool (see
	// internal/cluster), and the mux gains the cluster join/heartbeat
	// endpoints plus /metrics dispatch counters. Results are
	// byte-identical to local execution, and a pool with no live
	// runners degrades to exactly the local path.
	Cluster *cluster.Coordinator
	// Obs is the server's observability plane: its registry backs
	// /metrics (and, when Cluster is set, receives the coordinator's
	// dispatch counters), its tracer turns requests and jobs into spans,
	// and its flight recorder backs /debug/events. nil means a fresh
	// enabled plane; pass obs.Nop() for a fully disabled one (empty
	// /metrics, no spans, zero observability allocations).
	Obs *obs.Obs
	// Log receives structured operational log records; nil discards
	// them.
	Log *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.CacheEntries <= 0 {
		o.CacheEntries = 1024
	}
	if o.CacheBytes <= 0 {
		o.CacheBytes = 64 << 20
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.JobHistory <= 0 {
		o.JobHistory = 4096
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.MaxSyncSims <= 0 {
		o.MaxSyncSims = 2 * runtime.GOMAXPROCS(0)
	}
	if o.Obs == nil {
		o.Obs = obs.New(obs.Options{})
	}
	if o.Log == nil {
		o.Log = slog.New(slog.DiscardHandler)
	}
	return o
}

// Server is the simulation service. Create one with New, expose
// Handler() over any net/http server, and call Shutdown to drain.
type Server struct {
	opts     Options
	store    *store.Store
	flight   *store.Flight[[]byte]
	jobs     *jobManager
	metrics  *metrics
	mux      *http.ServeMux
	draining atomic.Bool
	syncSem  chan struct{} // bounds inline simulations (/v1/run, /v1/replay)
	// sims counts engine simulations actually executed on behalf of
	// this server — memo and store hits don't count — wired as the
	// SimCounter of every runner the server creates. With the
	// coordinator's own count it forms hybridmem_sims_total.
	sims obs.Counter

	// Execution seams. Tests substitute counting or blocking stand-ins
	// to pin the concurrency contracts (one simulation per fingerprint,
	// drain semantics) without timing-dependent real runs. A non-nil
	// tel samples the runs (see exp.Runner.Telemetry).
	runOne     func(designName, workloadName string, cfg api.Config, tel *exp.TelemetryOptions) (sim.Result, error)
	runSweep   func(ctx context.Context, specs []exp.RunSpec, cfg api.Config, tel *exp.TelemetryOptions, progress func(done, total int)) ([]sim.Result, error)
	runExplore func(ctx context.Context, req exploreRequest, checkpoint string, resume bool, progress func(dse.Event)) (dse.Result, error)
}

// New builds a Server, starts its worker pool, and — when a state
// directory is configured — recovers persisted jobs from it.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	st := opts.Store
	if st == nil {
		var err error
		if st, err = OpenStore(opts); err != nil {
			return nil, err
		}
	}
	s := &Server{
		opts:    opts,
		store:   st,
		flight:  store.NewFlight[[]byte](),
		syncSem: make(chan struct{}, opts.MaxSyncSims),
	}
	s.metrics = newMetrics(s)
	if opts.Cluster != nil {
		opts.Cluster.RegisterMetrics(s.metrics.reg)
	}
	s.runOne = s.defaultRunOne
	s.runSweep = s.defaultRunSweep
	s.runExplore = s.defaultRunExplore
	s.jobs = newJobManager(s, opts.QueueDepth, opts.Workers, opts.JobHistory)
	s.buildMux()
	if err := s.recoverJobs(); err != nil {
		// The worker pool is already running; drain it (recovery failed
		// before anything was enqueued, so this is immediate) rather
		// than leak its goroutines to a caller that retries New.
		drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.jobs.drain(drainCtx)
		return nil, err
	}
	return s, nil
}

// OpenStore opens the result store a server over opts uses when
// opts.Store is nil: memory tiers bounded by CacheEntries and
// CacheBytes, and a disk tier at StoreDir, else at <StateDir>/store
// (finished jobs are adopted from the store after a restart, so
// persistence needs a disk tier), else none.
func OpenStore(opts Options) (*store.Store, error) {
	dir := opts.StoreDir
	if dir == "" && opts.StateDir != "" {
		dir = filepath.Join(opts.StateDir, "store")
	}
	return store.Open(store.Options{
		MemEntries: opts.CacheEntries,
		MemBytes:   opts.CacheBytes,
		Dir:        dir,
		MaxBytes:   opts.StoreMaxBytes,
	})
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains the server: liveness flips to 503, new jobs are
// rejected, and queued plus running jobs finish. When ctx expires first,
// running jobs are canceled (explorations flush a final checkpoint) and
// their workers awaited before the context error is returned. In-flight
// HTTP requests are the enclosing http.Server's responsibility
// (http.Server.Shutdown), ordered after this drain by hybridmem.Serve.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	return s.jobs.drain(ctx)
}

func (s *Server) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/designs", s.instrument("/v1/designs", s.handleDesigns))
	mux.HandleFunc("GET /v1/workloads", s.instrument("/v1/workloads", s.handleWorkloads))
	mux.HandleFunc("POST /v1/run", s.instrument("/v1/run", s.handleRun))
	mux.HandleFunc("POST /v1/sweep", s.instrument("/v1/sweep", s.handleSweep))
	mux.HandleFunc("POST /v1/explore", s.instrument("/v1/explore", s.handleExplore))
	// Replay accepts PUT as well as POST: the body is an upload, and
	// `curl -T` (the natural way to stream a trace file) issues PUT.
	mux.HandleFunc("POST /v1/replay", s.instrument("/v1/replay", s.handleReplay))
	mux.HandleFunc("PUT /v1/replay", s.instrument("/v1/replay", s.handleReplay))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("/v1/jobs", s.handleJobStatus))
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.instrument("/v1/jobs/result", s.handleJobResult))
	mux.HandleFunc("GET /v1/jobs/{id}/series", s.instrument("/v1/jobs/series", s.handleJobSeries))
	if c := s.opts.Cluster; c != nil {
		mux.HandleFunc("POST /cluster/v1/join", c.HandleJoin)
		mux.HandleFunc("POST /cluster/v1/heartbeat", c.HandleHeartbeat)
	}
	mux.HandleFunc("GET /debug/events", s.handleDebugEvents)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	s.mux = mux
}

// --- request forms and validation ---

type runRequest struct {
	Design   string     `json:"design"`
	Workload string     `json:"workload"`
	Config   api.Config `json:"config"`
}

type sweepRequest struct {
	Designs   []string   `json:"designs"`
	Workloads []string   `json:"workloads"`
	Config    api.Config `json:"config"`
	// Series, when present, enables epoch telemetry for every run of
	// the sweep: per-epoch SSE frames stream alongside progress, and
	// the assembled series document is served at /v1/jobs/{id}/series.
	// The headline result document is byte-identical either way —
	// telemetry is passive — but a sweep with series is a distinct job
	// (the options are folded into the fingerprint). Series-enabled
	// sweeps always execute locally, even on a cluster coordinator:
	// runners return results, not series.
	Series *seriesOptions `json:"series,omitempty"`
}

// seriesOptions is the wire form of the telemetry knobs: epoch window
// in retired instructions and the per-run epoch ring bound, both
// defaulting to the telemetry package defaults when zero.
type seriesOptions struct {
	WindowInstr uint64 `json:"window_instr,omitempty"`
	MaxEpochs   int    `json:"max_epochs,omitempty"`
}

type exploreRequest struct {
	Families    []string `json:"families"`
	Workloads   []string `json:"workloads"`
	Budget      int      `json:"budget"`
	BatchSize   int      `json:"batch_size"`
	Seed        uint64   `json:"seed"`
	MaxPerParam int      `json:"max_per_param"`
	// ScreenInstrPerCore and ScreenBudget enable multi-fidelity
	// screening (see dse.Options); zero means single fidelity.
	ScreenInstrPerCore uint64     `json:"screen_instr_per_core,omitempty"`
	ScreenBudget       int        `json:"screen_budget,omitempty"`
	Config             api.Config `json:"config"`
}

// normalizeConfig substitutes the documented default for every zero
// field (negative values stay put and fail validation), so a request may
// omit config entirely. instrDefault differs per endpoint: runs and
// sweeps default to the harness's 1M instructions, explorations to the
// 200k short runs the search uses. One consequence: seed 0 is
// indistinguishable from an omitted seed in JSON and maps to the
// default seed 1 — a seed-0 run (legal, if unusual, through the Go API
// and CLI) is not representable over HTTP.
func normalizeConfig(c api.Config, instrDefault uint64) api.Config {
	if c.Scale == 0 {
		c.Scale = config.DefaultScale
	}
	if c.NMRatio16 == 0 {
		c.NMRatio16 = 1
	}
	if c.InstrPerCore == 0 {
		c.InstrPerCore = instrDefault
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// checkConfig rejects a bad or oversized configuration before any
// simulation state exists — the cheap 400 the service promises.
func (s *Server) checkConfig(cfg api.Config) error {
	if err := config.ValidateRun(cfg.Scale, cfg.NMRatio16, cfg.InstrPerCore); err != nil {
		return err
	}
	if cfg.InstrPerCore > maxInstrPerCore {
		return fmt.Errorf("instr_per_core %d exceeds this server's limit of %d", cfg.InstrPerCore, maxInstrPerCore)
	}
	return nil
}

// validateRun rejects a bad (design, workload, config) triple.
func (s *Server) validateRun(designName, workloadName string, cfg api.Config) error {
	if err := s.checkConfig(cfg); err != nil {
		return err
	}
	if _, err := design.Parse(designName); err != nil {
		return err
	}
	if _, ok := workload.ByName(workloadName); !ok {
		return fmt.Errorf("unknown workload %q", workloadName)
	}
	return nil
}

// errBusy reports sync-simulation saturation; mapped to 503.
var errBusy = fmt.Errorf("too many simulations in flight; retry shortly")

// acquireSync claims a synchronous-simulation slot without blocking —
// saturation answers 503 rather than queueing unbounded inline work.
func (s *Server) acquireSync() bool {
	select {
	case s.syncSem <- struct{}{}:
		return true
	default:
		return false
	}
}

func (s *Server) releaseSync() { <-s.syncSem }

// --- fingerprints ---
//
// Every key opens with store.VersionParts, so a result cached under one
// engine or schema version never serves a request under another.

func cfgParts(c api.Config) []string {
	return []string{
		"scale=" + strconv.Itoa(c.Scale),
		"ratio=" + strconv.Itoa(c.NMRatio16),
		"instr=" + strconv.FormatUint(c.InstrPerCore, 10),
		"seed=" + strconv.FormatUint(c.Seed, 10),
	}
}

// runKey is the cache key of a sync run; series (from ?series=1) makes
// it the key of the run-series document instead.
func runKey(req runRequest, series *seriesOptions) string {
	parts := append(store.VersionParts("run"), req.Design, req.Workload)
	parts = append(parts, cfgParts(req.Config)...)
	return store.Fingerprint(append(parts, seriesParts(series)...)...)
}

func sweepKey(req sweepRequest) string {
	parts := append(store.VersionParts("sweep"), "designs="+join(req.Designs), "workloads="+join(req.Workloads))
	parts = append(parts, cfgParts(req.Config)...)
	return store.Fingerprint(append(parts, seriesParts(req.Series)...)...)
}

// seriesParts folds telemetry options into a fingerprint: the series
// schema and window knobs. It is empty when telemetry is off, so plain
// fingerprints — and every result cached under them — stay stable.
func seriesParts(o *seriesOptions) []string {
	if o == nil {
		return nil
	}
	return []string{
		"series",
		"swin=" + strconv.FormatUint(o.WindowInstr, 10),
		"sepochs=" + strconv.Itoa(o.MaxEpochs),
		"sschema=" + strconv.Itoa(api.SeriesSchemaVersion),
	}
}

// seriesKey is the store key of a sampled sweep job's settled series
// document, derived from the job ID that keys its result document.
func seriesKey(jobID string) string { return store.Fingerprint(jobID, "series") }

func exploreKey(req exploreRequest) string {
	parts := append(store.VersionParts("explore"),
		"families="+join(req.Families),
		"workloads="+join(req.Workloads),
		"budget="+strconv.Itoa(req.Budget),
		"batch="+strconv.Itoa(req.BatchSize),
		"seed="+strconv.FormatUint(req.Seed, 10),
		"maxvals="+strconv.Itoa(req.MaxPerParam),
		// A removed request field's fixed value, kept so that explore
		// documents stored under earlier keys still hit.
		"ubound=0",
	)
	// Appended only when screening is requested, so single-fidelity
	// fingerprints — and every result cached under them — stay stable.
	if req.ScreenInstrPerCore > 0 {
		parts = append(parts,
			"screen="+strconv.FormatUint(req.ScreenInstrPerCore, 10),
			"sbudget="+strconv.Itoa(req.ScreenBudget),
		)
	}
	return store.Fingerprint(append(parts, cfgParts(req.Config)...)...)
}

func join(ss []string) string { return strings.Join(ss, ",") }

// --- engine execution (the default seams) ---

// runner returns an engine runner for cfg sharing the server's store
// and simulation counter.
func (s *Server) runner(cfg api.Config, tel *exp.TelemetryOptions) *exp.Runner {
	return &exp.Runner{
		Scale:        cfg.Scale,
		InstrPerCore: cfg.InstrPerCore,
		Seed:         cfg.Seed,
		Parallelism:  s.opts.Parallelism,
		Store:        s.store,
		SimCounter:   &s.sims,
		Telemetry:    tel,
	}
}

func (s *Server) defaultRunOne(designName, workloadName string, cfg api.Config, tel *exp.TelemetryOptions) (sim.Result, error) {
	wl, ok := workload.ByName(workloadName)
	if !ok {
		return sim.Result{}, fmt.Errorf("unknown workload %q", workloadName)
	}
	return s.runner(cfg, tel).ResultErr(wl, designName, cfg.NMRatio16)
}

// defaultRunSweep shards a plain sweep across the coordinator's pool
// when the server is one, and runs it locally otherwise. A sampled sweep
// always runs locally — runners return results, not series — and
// passivity makes its headline document match the clustered one.
func (s *Server) defaultRunSweep(ctx context.Context, specs []exp.RunSpec, cfg api.Config, tel *exp.TelemetryOptions, progress func(done, total int)) ([]sim.Result, error) {
	if s.opts.Cluster != nil && tel == nil {
		return s.clusterSweep(ctx, specs, cfg, progress)
	}
	return s.runner(cfg, tel).ResultsParallelProgress(ctx, specs, progress)
}

func (s *Server) defaultRunExplore(ctx context.Context, req exploreRequest, checkpoint string, resume bool, progress func(dse.Event)) (dse.Result, error) {
	opts := dse.Options{
		Families:           req.Families,
		Workloads:          req.Workloads,
		Budget:             req.Budget,
		BatchSize:          req.BatchSize,
		Seed:               req.Seed,
		Scale:              req.Config.Scale,
		InstrPerCore:       req.Config.InstrPerCore,
		SimSeed:            req.Config.Seed,
		Ratio16:            req.Config.NMRatio16,
		ScreenInstrPerCore: req.ScreenInstrPerCore,
		ScreenBudget:       req.ScreenBudget,
		Parallelism:        s.opts.Parallelism,
		MaxPerParam:        req.MaxPerParam,
		Checkpoint:         checkpoint,
		Resume:             resume,
		Progress:           progress,
		Store:              s.store,
		SimCounter:         &s.sims,
	}
	// Frontier folds land in the shared phase family; the hook is not
	// part of the search fingerprint, so checkpoints are unaffected.
	if phases := obs.PhaseHist(s.opts.Obs.Registry()); phases != nil {
		opts.Phase = func(name string, d time.Duration) {
			phases.With(name).ObserveDuration(d)
		}
	}
	if s.opts.Cluster != nil {
		// The search stays on this server (RNG, frontier, checkpoints);
		// only its evaluation batches fan out across the runner pool.
		opts.Eval = s.opts.Cluster.Evaluator()
	}
	return dse.Search(ctx, opts)
}

// --- job execution ---

// runJob executes one dequeued job: a result document in the store
// (with its series document, for a sampled sweep) settles it without
// touching the engines; otherwise the engine runs and the document is
// stored under the job ID — the only persisted copy of the result.
func (s *Server) runJob(ctx context.Context, j *job) {
	j.start()
	// The job span is the root of a sweep's or exploration's timeline:
	// cluster batches and shards hang off it through the context.
	sp := s.opts.Obs.Tracer().StartSpan("job",
		obs.String("job", j.ID), obs.String("kind", j.Kind))
	defer sp.End()
	ctx = obs.ContextWithSpan(ctx, sp)
	s.opts.Log.Info("serve: job started", "job", j.ID, "kind", j.Kind)
	var err error
	lookupStart := time.Now()
	_, _, ok := s.store.Get(j.ID)
	ok = ok && s.seriesStored(j)
	s.metrics.phaseLookup.ObserveDuration(time.Since(lookupStart))
	if ok {
		sp.Event("result_cached")
	} else {
		var data []byte
		s.metrics.inflightSims.Add(1)
		switch j.Kind {
		case "sweep":
			data, err = s.execSweep(ctx, j)
		case "explore":
			data, err = s.execExplore(ctx, j)
		default:
			err = fmt.Errorf("unknown job kind %q", j.Kind)
		}
		s.metrics.inflightSims.Add(-1)
		if err == nil {
			err = s.storeDoc(j.ID, data)
		}
	}
	if err == nil && j.Kind == "explore" && s.opts.StateDir != "" {
		os.Remove(s.statePath("ckpt", j.ID)) // resumed no more; the result is final
	}
	j.finish(err)
	if err != nil {
		s.metrics.jobsFailed.Inc()
		s.opts.Log.Warn("serve: job failed", "job", j.ID, "kind", j.Kind, "err", err)
	} else {
		s.metrics.jobsDone.Inc()
		s.opts.Log.Info("serve: job done", "job", j.ID, "kind", j.Kind)
	}
}

type sweepProgress struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

func (s *Server) execSweep(ctx context.Context, j *job) ([]byte, error) {
	req := j.sweep
	if req == nil {
		return nil, fmt.Errorf("sweep job %s has no request payload", j.ID)
	}
	specs, err := exp.SweepSpecsByName(req.Designs, req.Workloads, req.Config.NMRatio16)
	if err != nil {
		return nil, err
	}
	progress := func(done, total int) {
		if data, merr := json.Marshal(sweepProgress{Done: done, Total: total}); merr == nil {
			j.publishProgress(data)
		}
	}
	var tel *exp.TelemetryOptions
	if o := req.Series; o != nil {
		tel = s.sweepTelemetry(j, specs, *o)
	}
	simStart := time.Now()
	res, err := s.runSweep(ctx, specs, req.Config, tel, progress)
	s.metrics.phaseSim.ObserveDuration(time.Since(simStart))
	if err != nil {
		return nil, err
	}
	if tel != nil {
		// Stored before the result document, so a stored result implies
		// a stored series for recovery and cache hits.
		doc, _ := j.seriesDoc(false)
		data, err := api.Encode(doc)
		if err != nil {
			return nil, err
		}
		if err := s.storeDoc(seriesKey(j.ID), data); err != nil {
			return nil, err
		}
	}
	return api.Encode(api.NewSweep(res))
}

// storeDoc writes a job's document to the result store, its only copy.
// A document no tier can hold fails the job: done, it would answer 410
// at once, and each resubmission would rerun the job to the same end.
func (s *Server) storeDoc(key string, data []byte) error {
	if !s.store.Put(key, data) {
		return fmt.Errorf("document of %d bytes exceeds the result store's bounds; raise the memory tier's or the disk tier's byte bound", len(data))
	}
	return nil
}

// epochEvent is the wire form of one live per-epoch SSE frame: the
// run's position in the sweep, its identity, and the closed epoch.
type epochEvent struct {
	Run      int       `json:"run"`
	Design   string    `json:"design"`
	Workload string    `json:"workload"`
	Epoch    api.Epoch `json:"epoch"`
}

// sweepTelemetry samples a sweep's runs into the job: each closed epoch
// streams as an "epoch" SSE frame (and refreshes the
// hybridmem_sim_epoch_* gauges), and per-run series land on the job as
// they settle — so /v1/jobs/{id}/series shows a partial document
// mid-sweep until execSweep settles it.
func (s *Server) sweepTelemetry(j *job, specs []exp.RunSpec, o seriesOptions) *exp.TelemetryOptions {
	entries := make([]api.SweepSeriesEntry, len(specs))
	for i, sp := range specs {
		entries[i] = api.SweepSeriesEntry{Design: sp.Design, Workload: sp.Workload.Name, Series: api.FromSeries(nil)}
	}
	j.initSeries(entries)
	return &exp.TelemetryOptions{
		WindowInstr: o.WindowInstr,
		MaxEpochs:   o.MaxEpochs,
		OnEpoch: func(run int, e telemetry.Epoch) {
			s.metrics.noteEpoch(e)
			ev := epochEvent{Run: run, Design: specs[run].Design, Workload: specs[run].Workload.Name, Epoch: e}
			if data, merr := json.Marshal(ev); merr == nil {
				j.publishEvent("epoch", data)
			}
		},
		OnSeries: func(run int, ser *telemetry.Series) {
			j.setSeries(run, api.FromSeries(ser))
		},
	}
}

// clusterSweep shards the sweep across the runner pool. Outcomes carry
// each run's sim.Result record in SweepSpecsByName order, so the caller
// encodes them exactly as it encodes a local sweep.
func (s *Server) clusterSweep(ctx context.Context, specs []exp.RunSpec, c api.Config, progress func(done, total int)) ([]sim.Result, error) {
	runs := make([]exp.Run, len(specs))
	for i, sp := range specs {
		runs[i] = exp.Run{Design: sp.Design, Workload: sp.Workload.Name, Ratio16: sp.Ratio16}
	}
	cfg := cluster.Config{Scale: c.Scale, InstrPerCore: c.InstrPerCore, Seed: c.Seed}
	outs, err := s.opts.Cluster.Run(ctx, cfg, runs, progress)
	if err != nil {
		return nil, err
	}
	res := make([]sim.Result, len(outs))
	var errs []error
	for i, o := range outs {
		if o.Err != "" {
			errs = append(errs, errors.New(o.Err))
		}
		res[i] = o.Result
	}
	return res, errors.Join(errs...)
}

type exploreProgress struct {
	Batch        int `json:"batch"`
	Evaluated    int `json:"evaluated"`
	Budget       int `json:"budget"`
	SpaceSize    int `json:"space_size"`
	FrontierSize int `json:"frontier_size"`
}

func (s *Server) execExplore(ctx context.Context, j *job) ([]byte, error) {
	req := j.explore
	if req == nil {
		return nil, fmt.Errorf("explore job %s has no request payload", j.ID)
	}
	checkpoint, resume := "", false
	if s.opts.StateDir != "" {
		checkpoint = s.statePath("ckpt", j.ID)
		if _, err := os.Stat(checkpoint); err == nil {
			resume = true
		}
	}
	res, err := s.runExplore(ctx, *req, checkpoint, resume, func(e dse.Event) {
		if e.Done {
			return
		}
		if data, merr := json.Marshal(exploreProgress{
			Batch: e.Round, Evaluated: e.Evaluated, Budget: e.Budget,
			SpaceSize: e.SpaceSize, FrontierSize: e.FrontierSize,
		}); merr == nil {
			j.publishProgress(data)
		}
	})
	if err != nil {
		return nil, err
	}
	return api.Encode(res.APIDoc())
}

// --- HTTP plumbing ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := api.Encode(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(data)
}

func writeDoc(w http.ResponseWriter, data []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// decodeBody decodes a JSON request body with a size bound and strict
// field checking, so typos in request fields fail loudly instead of
// silently running a default simulation.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// rejectDraining answers 503 during shutdown; handlers that start new
// work call it first.
func (s *Server) rejectDraining(w http.ResponseWriter) bool {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "%v", errDraining)
		return true
	}
	return false
}

// --- handlers ---

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	body := map[string]string{"status": "ok"}
	if c := s.opts.Cluster; c != nil {
		body["role"] = "coordinator"
		body["live_runners"] = strconv.Itoa(c.Stats().RunnersLive)
	}
	writeJSON(w, http.StatusOK, body)
}

type designInfo struct {
	Name    string `json:"name"`
	Grammar string `json:"grammar"`
	Kind    string `json:"kind"`
	Doc     string `json:"doc"`
}

func (s *Server) handleDesigns(w http.ResponseWriter, r *http.Request) {
	infos := design.AllInfos()
	out := make([]designInfo, len(infos))
	for i, info := range infos {
		out[i] = designInfo{Name: info.Name, Grammar: info.Grammar(), Kind: info.Kind.String(), Doc: info.Doc}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	specs := workload.Specs()
	names := make([]string, len(specs))
	for i, spec := range specs {
		names[i] = spec.Name
	}
	writeJSON(w, http.StatusOK, names)
}

// parseSeriesQuery reads the telemetry query parameters of a sync run:
// ?series=1 enables epoch sampling, ?window_instr= and ?max_epochs=
// tune it. Returns nil when series is absent or falsy.
func parseSeriesQuery(r *http.Request) (*seriesOptions, error) {
	q := r.URL.Query()
	switch q.Get("series") {
	case "", "0", "false":
		return nil, nil
	}
	opts := &seriesOptions{}
	if v := q.Get("window_instr"); v != "" {
		w, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad window_instr: %v", err)
		}
		opts.WindowInstr = w
	}
	if v := q.Get("max_epochs"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, fmt.Errorf("bad max_epochs: %v", err)
		}
		opts.MaxEpochs = n
	}
	return opts, opts.check()
}

// check rejects an epoch ring past maxSeriesEpochs before any sampler
// preallocates it.
func (o *seriesOptions) check() error {
	if o != nil && o.MaxEpochs > maxSeriesEpochs {
		return fmt.Errorf("max_epochs %d exceeds this server's limit of %d", o.MaxEpochs, maxSeriesEpochs)
	}
	return nil
}

// handleRun serves one simulation synchronously: cache first, then the
// singleflight slot — concurrent identical requests execute exactly one
// simulation and share its bytes. With ?series=1 the run is sampled
// and the response is the RunSeries document (result plus epoch
// telemetry), cached under its own fingerprint; the embedded result is
// byte-identical to the plain Run document's.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	series, serr := parseSeriesQuery(r)
	if serr != nil {
		writeError(w, http.StatusBadRequest, "%v", serr)
		return
	}
	req.Config = normalizeConfig(req.Config, 1_000_000)
	if err := s.validateRun(req.Design, req.Workload, req.Config); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if s.rejectDraining(w) {
		return
	}
	canonStart := time.Now()
	key := runKey(req, series)
	s.metrics.phaseCanon.ObserveDuration(time.Since(canonStart))
	lookupStart := time.Now()
	data, _, ok := s.store.Get(key)
	s.metrics.phaseLookup.ObserveDuration(time.Since(lookupStart))
	if ok {
		writeDoc(w, data)
		return
	}
	data, err, shared := s.flight.Do(key, func() ([]byte, error) {
		// A caller that lost the race against a completed flight sees the
		// result here without re-simulating.
		if doc, ok := s.store.Peek(key); ok {
			return doc, nil
		}
		if !s.acquireSync() {
			return nil, errBusy
		}
		defer s.releaseSync()
		s.metrics.inflightSims.Add(1)
		defer s.metrics.inflightSims.Add(-1)
		var tel *exp.TelemetryOptions
		var ser *telemetry.Series
		if series != nil {
			tel = &exp.TelemetryOptions{
				WindowInstr: series.WindowInstr,
				MaxEpochs:   series.MaxEpochs,
				OnEpoch:     func(_ int, e telemetry.Epoch) { s.metrics.noteEpoch(e) },
				OnSeries:    func(_ int, got *telemetry.Series) { ser = got },
			}
		}
		simStart := time.Now()
		sr, err := s.runOne(req.Design, req.Workload, req.Config, tel)
		s.metrics.phaseSim.ObserveDuration(time.Since(simStart))
		if err != nil {
			return nil, err
		}
		var doc any = api.NewRun(sr)
		if series != nil {
			doc = api.NewRunSeries(sr, ser)
		}
		data, err := api.Encode(doc)
		if err != nil {
			return nil, err
		}
		s.store.Put(key, data)
		return data, nil
	})
	if shared {
		s.metrics.flightShared.Inc()
	}
	switch {
	case errors.Is(err, errBusy):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, "run failed: %v", err)
	default:
		writeDoc(w, data)
	}
}

type submitResponse struct {
	JobID string `json:"job_id"`
	State string `json:"state"`
}

func (s *Server) submitJob(w http.ResponseWriter, j *job) {
	if s.rejectDraining(w) {
		return
	}
	j, err := s.jobs.submit(j)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	state, _ := j.status()
	writeJSON(w, http.StatusAccepted, submitResponse{JobID: j.ID, State: state})
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Designs) == 0 || len(req.Workloads) == 0 {
		writeError(w, http.StatusBadRequest, "designs and workloads are required (a sweep over nothing is almost never what you meant)")
		return
	}
	if err := req.Series.check(); err != nil {
		writeError(w, http.StatusBadRequest, "series: %v", err)
		return
	}
	req.Config = normalizeConfig(req.Config, 1_000_000)
	for _, d := range req.Designs {
		if err := s.validateRun(d, req.Workloads[0], req.Config); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	for _, wl := range req.Workloads {
		if _, ok := workload.ByName(wl); !ok {
			writeError(w, http.StatusBadRequest, "unknown workload %q", wl)
			return
		}
	}
	j := newJob(sweepKey(req), "sweep")
	j.sweep = &req
	s.submitJob(w, j)
}

func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	var req exploreRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Budget <= 0 {
		writeError(w, http.StatusBadRequest, "budget must be > 0 (exhaustive exploration is not offered over HTTP; bound the search)")
		return
	}
	req.Config = normalizeConfig(req.Config, 200_000)
	if err := s.checkConfig(req.Config); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.ScreenInstrPerCore > 0 {
		screenCfg := req.Config
		screenCfg.InstrPerCore = req.ScreenInstrPerCore
		if err := s.checkConfig(screenCfg); err != nil {
			writeError(w, http.StatusBadRequest, "screen fidelity: %v", err)
			return
		}
	}
	for _, f := range req.Families {
		if _, ok := design.LookupInfo(f); !ok {
			writeError(w, http.StatusBadRequest, "unknown design family %q", f)
			return
		}
	}
	for _, wl := range req.Workloads {
		if _, ok := workload.ByName(wl); !ok {
			writeError(w, http.StatusBadRequest, "unknown workload %q", wl)
			return
		}
	}
	j := newJob(exploreKey(req), "explore")
	j.explore = &req
	s.submitJob(w, j)
}

// handleReplay replays the request body as a memory trace. The body
// streams straight into the trace decoder — constant memory at any
// trace size — so parameters arrive as query values, and the result is
// not cached (serving a repeat from cache would require hashing the
// whole body first, which is exactly the buffering this path exists to
// avoid).
func (s *Server) handleReplay(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	designName := q.Get("design")
	if designName == "" {
		writeError(w, http.StatusBadRequest, "design query parameter is required")
		return
	}
	name := q.Get("name")
	if name == "" {
		name = "upload"
	}
	intQ := func(key string, def int) (int, error) {
		v := q.Get(key)
		if v == "" {
			return def, nil
		}
		return strconv.Atoi(v)
	}
	uintQ := func(key string, def uint64) (uint64, error) {
		v := q.Get(key)
		if v == "" {
			return def, nil
		}
		return strconv.ParseUint(v, 10, 64)
	}
	var cfg api.Config
	var mlp, window int
	var err error
	if cfg.Scale, err = intQ("scale", 0); err == nil {
		if cfg.NMRatio16, err = intQ("nm_ratio16", 0); err == nil {
			if cfg.InstrPerCore, err = uintQ("instr_per_core", 0); err == nil {
				if cfg.Seed, err = uintQ("seed", 0); err == nil {
					if mlp, err = intQ("mlp", 4); err == nil {
						window, err = intQ("window", 0)
					}
				}
			}
		}
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad query parameter: %v", err)
		return
	}
	cfg = normalizeConfig(cfg, 1_000_000)
	if verr := s.checkConfig(cfg); verr != nil {
		writeError(w, http.StatusBadRequest, "%v", verr)
		return
	}
	if _, perr := design.Parse(designName); perr != nil {
		writeError(w, http.StatusBadRequest, "%v", perr)
		return
	}
	if s.rejectDraining(w) {
		return
	}
	if !s.acquireSync() {
		writeError(w, http.StatusServiceUnavailable, "%v", errBusy)
		return
	}
	defer s.releaseSync()
	runner := &exp.Runner{Scale: cfg.Scale, InstrPerCore: cfg.InstrPerCore, Seed: cfg.Seed, TraceWindow: window, SimCounter: &s.sims}
	s.metrics.inflightSims.Add(1)
	res, err := runner.RunTrace(name, r.Body, designName, cfg.NMRatio16, mlp)
	s.metrics.inflightSims.Add(-1)
	if err != nil {
		// Everything RunTrace reports — an mlp outside [1, exp.MaxMLP],
		// a window above trace.MaxWindow, decode errors, window skew, an
		// empty trace — originates in the request.
		writeError(w, http.StatusBadRequest, "replay failed: %v", err)
		return
	}
	data, err := api.Encode(api.NewRun(res))
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeDoc(w, data)
}

func (s *Server) jobFromPath(w http.ResponseWriter, r *http.Request) (*job, bool) {
	id := r.PathValue("id")
	j, ok := s.jobs.lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return nil, false
	}
	return j, true
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	s.writeSettled(w, j, j.ID)
}

// handleJobSeries serves a telemetry sweep's time-series document.
// Mid-sweep it returns what has settled so far, marked "partial": true;
// once the sweep is done it returns the settled document from the
// result store (so also across restarts). Jobs submitted without series
// options have no series to serve and answer 404.
func (s *Server) handleJobSeries(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	if j.sweep == nil || j.sweep.Series == nil {
		writeError(w, http.StatusNotFound, "job %q has no telemetry series (submit the sweep with \"series\" options)", j.ID)
		return
	}
	if doc, running := j.seriesDoc(true); running {
		writeJSON(w, http.StatusOK, doc)
		return
	}
	s.writeSettled(w, j, seriesKey(j.ID))
}

// writeSettled answers with a job's document stored under key: the
// bytes once the job is done, or 410 if the store has evicted them
// since (resubmitting recomputes them), 500 for a failed job and 409
// for one that has not settled.
func (s *Server) writeSettled(w http.ResponseWriter, j *job, key string) {
	// Peek, not Get: a job fetch is not a cache lookup and must not
	// move the hit ratio.
	switch state, errMsg := j.status(); state {
	case jobDone:
		if data, ok := s.store.Peek(key); ok {
			writeDoc(w, data)
			return
		}
		writeError(w, http.StatusGone, "job %s is done but the result store has evicted its document; resubmit the job to recompute it", j.ID)
	case jobFailed:
		writeError(w, http.StatusInternalServerError, "job failed: %s", errMsg)
	default:
		writeError(w, http.StatusConflict, "job is %s; result not ready", state)
	}
}

// handleJobEvents streams a job's progress as server-sent events:
// any buffered latest progress first, then live events, then a final
// "done" event. Settled jobs replay their outcome immediately.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	ch, backlog := j.subscribe()
	defer j.unsubscribe(ch)
	for _, frame := range backlog {
		w.Write(frame)
	}
	flusher.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case frame, open := <-ch:
			if !open {
				return
			}
			w.Write(frame)
			flusher.Flush()
		}
	}
}
