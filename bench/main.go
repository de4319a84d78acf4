// Command bench is the repository benchmark. It runs one workload of the
// simulator through the public hybridmem API for a fixed time, checks
// that every output is correct, and prints the end-to-end metrics — or,
// with --trace 1, the per-layer metrics of a traced run — as one JSON
// object on the last line of standard output:
//
//	bash bench/run.sh --workload sweep-long --seed 1 --seconds 20 --trace 0
//
// README.md describes the workloads, the metrics and the layer each
// per-layer metric belongs to.
package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// sizes fixes the amount of work of every workload. Runs use fullSizes;
// the smoke test uses smokeSizes. There are deliberately no flags for
// them: two runs of the benchmark always do the same work.
type sizes struct {
	// explore-screen
	exploreWorkloads    []string
	exploreInstr        uint64 // full fidelity, per core
	exploreScreenInstr  uint64 // screening fidelity, per core
	exploreBudget       int
	exploreBatch        int
	exploreScreenBudget int
	exploreMaxPerParam  int
	// exploreSeeds is how many searches a run cycles through, each with
	// its own seed derived from --seed: which candidates a search promotes
	// depends on its seed, and a run's median should not.
	exploreSeeds int
	// sweep-long
	sweepWorkloads []string
	sweepInstr     uint64
	// trace-replay
	replayInstr uint64
	// serve-mixed: one iteration is a batch of this many warm, cold and
	// job requests, in a seeded order.
	serveInstr uint64
	serveMix   [3]int
	// goldenBatches serve-mixed batches form the seed-1 transcript.
	goldenBatches int

	setupReps int // set-ups per run; setup_s is their median
	minIters  int // timed iterations per run, at least
	probeReps int // repetitions of each per-layer probe
}

var fullSizes = sizes{
	exploreWorkloads:    []string{"mcf", "lbm", "xz"},
	exploreInstr:        100_000,
	exploreScreenInstr:  10_000,
	exploreBudget:       8,
	exploreBatch:        8,
	exploreScreenBudget: 64,
	exploreMaxPerParam:  4,
	exploreSeeds:        8,
	sweepWorkloads:      []string{"lbm", "mcf", "xz", "namd"},
	sweepInstr:          1_000_000,
	replayInstr:         1_000_000,
	serveInstr:          100_000,
	serveMix:            [3]int{80, 15, 5},
	goldenBatches:       5,
	setupReps:           3,
	minIters:            5,
	probeReps:           5,
}

var smokeSizes = sizes{
	exploreWorkloads:    []string{"mcf"},
	exploreInstr:        5_000,
	exploreScreenInstr:  2_000,
	exploreBudget:       2,
	exploreBatch:        2,
	exploreScreenBudget: 4,
	exploreMaxPerParam:  2,
	exploreSeeds:        2,
	sweepWorkloads:      []string{"lbm", "namd"},
	sweepInstr:          5_000,
	replayInstr:         5_000,
	serveInstr:          5_000,
	serveMix:            [3]int{8, 1, 1},
	goldenBatches:       2,
	setupReps:           2,
	minIters:            2,
	probeReps:           2,
}

// metricDef names one metric and its unit; the tables below must match
// BENCHMARK.json (the smoke test checks that they do).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s_p50", "s"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"alloc_mb_per_iter", "MB"},
	{"peak_rss_mb", "MB"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is printed on the line before the result: where the run was
// measured, the within-run noise of every metric, and the output checks.
type report struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Host     host               `json:"host"`
	Samples  map[string]summary `json:"samples"`
	Digest   string             `json:"digest"`
	Checks   []check            `json:"checks"`
	Errors   []string           `json:"errors,omitempty"` // causes of the first failed operations
	Info     map[string]any     `json:"info,omitempty"`
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// iterOut is what one timed iteration produced.
type iterOut struct {
	ops       []float64 // latency of each public call or request, ms
	minstr    float64   // nominal simulated instructions, millions
	attempted int
	failed    int
	errs      []string // first few failure causes
	out       []byte   // the iteration's output document
}

// bench is one workload between set-up and the final checks.
type bench interface {
	// iterate runs one iteration. tr is non-nil only for the traced
	// iteration; spans open under parent.
	iterate(tr *tracer, parent, iter int) iterOut
	// finish runs the checks that need the timed outputs and returns the
	// digest of the seed-dependent output document.
	finish(first iterOut) (digest string, checks []check, info map[string]any)
	close()
}

// env is what every workload is set up from.
type env struct {
	sz      *sizes
	seed    uint64
	tmpRoot string // every file the benchmark writes lives below it
}

type workloadDef struct {
	name  string
	setup func(e env) (bench, error)
}

var workloads = []workloadDef{
	{"explore-screen", setupExplore},
	{"sweep-long", setupSweep},
	{"trace-replay", setupReplay},
	{"serve-mixed", setupServe},
}

//go:embed golden/seed1.json
var goldenJSON []byte

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spans    string // traced runs write their spans here
	sz       *sizes
	tmpRoot  string
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	// The load is at most two threads wide whatever the host offers.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	res, _, err := run(context.Background(), o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload: explore-screen, sweep-long, trace-replay or serve-mixed")
	seed := fs.Uint64("seed", 1, "input seed (>= 1)")
	seconds := fs.Float64("seconds", 20, "timed seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement")
	spans := fs.String("spans", "", "span file of a traced run (default .bench_build/spans/<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	o := options{workload: *wl, seed: *seed, seconds: *seconds, trace: *trace == 1, spans: *spans, sz: &fullSizes, tmpRoot: filepath.Join(".bench_build", "tmp")}
	if _, ok := lookup(o.workload); !ok {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seed == 0 || *trace < 0 || *trace > 1 || o.seconds < 0 {
		return o, errors.New("want --seed >= 1, --trace 0|1 and --seconds >= 0")
	}
	if o.trace && o.spans == "" {
		o.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.json", o.workload, o.seed))
	}
	return o, nil
}

func lookup(name string) (workloadDef, bool) {
	for _, d := range workloads {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// run measures one workload and returns the result line and the report;
// the report and, for a traced run, the per-layer tables go to w first.
func run(ctx context.Context, o options, w io.Writer) (result, report, error) {
	def, _ := lookup(o.workload)
	if err := os.MkdirAll(o.tmpRoot, 0o755); err != nil {
		return result{}, report{}, err
	}
	tmp, err := os.MkdirTemp(o.tmpRoot, o.workload+"-")
	if err != nil {
		return result{}, report{}, err
	}
	defer os.RemoveAll(tmp)
	e := env{sz: o.sz, seed: o.seed, tmpRoot: tmp}

	m, err := measure(def, e, o.seconds)
	if err != nil {
		return result{}, report{}, err
	}
	defer m.b.close()
	rep := report{Workload: o.workload, Seed: o.seed, Host: hostInfo(), Samples: m.samples, Digest: m.digest, Checks: m.checks, Errors: m.errs, Info: m.info}
	if o.seed == 1 && o.sz == &fullSizes {
		rep.Checks = append(rep.Checks, goldenCheck(o.workload, m.digest))
	}
	res := result{Attempted: m.attempted, Failed: m.failed, Metrics: m.metrics}
	if o.trace {
		tr := newTracer(o.workload)
		lm, lchecks, err := traceLayers(ctx, def, e, m, tr, w)
		if err != nil {
			return result{}, report{}, err
		}
		rep.Checks = append(rep.Checks, lchecks...)
		res.Metrics = lm
		if err := tr.writeFile(o.spans); err != nil {
			return result{}, report{}, fmt.Errorf("write spans: %w", err)
		}
	}
	// Every output check counts as one operation.
	for _, c := range rep.Checks {
		res.Attempted++
		if !c.OK {
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(rep)
	if err != nil {
		return result{}, report{}, err
	}
	fmt.Fprintln(w, string(line))
	return res, rep, nil
}

func goldenCheck(workload, digest string) check {
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return check{Name: "golden seed-1 digest", Detail: err.Error()}
	}
	want := golden[workload]
	c := check{Name: "golden seed-1 digest", OK: want == digest}
	if !c.OK {
		c.Detail = fmt.Sprintf("digest %s, golden %q", digest, want)
	}
	return c
}

// measurement is the untraced part of a run.
type measurement struct {
	metrics   map[string]metric
	samples   map[string]summary
	wallP50   float64 // seconds
	attempted int
	failed    int
	digest    string
	checks    []check
	info      map[string]any
	errs      []string // causes of the first failed operations
	b         bench    // still open, for the traced iteration
	iters     int
}

// measure sets the workload up setupReps times (keeping the last one),
// runs one discarded warm-up iteration, then times iterations until
// seconds have passed and at least minIters have run.
func measure(def workloadDef, e env, seconds float64) (*measurement, error) {
	var setups []float64
	var b bench
	for i := 0; i < e.sz.setupReps; i++ {
		if b != nil {
			b.close()
		}
		start := time.Now()
		var err error
		b, err = def.setup(e)
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", def.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	first := b.iterate(nil, -1, 0)
	if first.failed > 0 {
		b.close()
		return nil, fmt.Errorf("%s: warm-up iteration failed: %v", def.name, first.errs)
	}

	m := &measurement{b: b, samples: map[string]summary{}}
	var walls, allocs, rates, ops []float64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for it := 1; it <= e.sz.minIters || time.Now().Before(deadline); it++ {
		a0 := totalAllocMB()
		start := time.Now()
		o := b.iterate(nil, -1, it)
		wall := time.Since(start).Seconds()
		allocs = append(allocs, totalAllocMB()-a0)
		walls = append(walls, wall)
		rates = append(rates, o.minstr/wall)
		ops = append(ops, o.ops...)
		m.attempted += o.attempted
		m.failed += o.failed
		if len(m.errs) < 5 {
			m.errs = append(m.errs, o.errs...)
		}
		m.iters = it
	}
	rss := peakRSSMB()
	m.digest, m.checks, m.info = b.finish(first)

	m.wallP50 = median(walls)
	m.samples["setup_s"] = summarize(setups)
	m.samples["wall_s"] = summarize(walls)
	m.samples["req_ms"] = summarize(ops)
	m.samples["sim_minstr_per_s"] = summarize(rates)
	m.samples["alloc_mb_per_iter"] = summarize(allocs)
	m.samples["peak_rss_mb"] = summary{N: 1, Median: rss, Q1: rss, Q3: rss}
	vals := map[string]float64{
		"setup_s":           median(setups),
		"wall_s_p50":        m.wallP50,
		"sim_minstr_per_s":  median(rates),
		"alloc_mb_per_iter": median(allocs),
		"peak_rss_mb":       rss,
	}
	m.metrics = map[string]metric{}
	for _, d := range endToEnd {
		m.metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return m, nil
}

// digestOf is the hex SHA-256 of an output document.
func digestOf(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
