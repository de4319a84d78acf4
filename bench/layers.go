package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"hybridmem"
	"hybridmem/internal/api"
	"hybridmem/internal/cachesim"
	"hybridmem/internal/cluster"
	"hybridmem/internal/config"
	"hybridmem/internal/design"
	"hybridmem/internal/dse"
	"hybridmem/internal/exp"
	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
	"hybridmem/internal/serve"
	"hybridmem/internal/sim"
	"hybridmem/internal/store"
	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
)

// The traced run measures the layers a simulated access passes through
// by calling each layer's exported functions from here, one span per
// call; nothing inside the program is instrumented. See README.md for
// which end-to-end metric each per-layer metric moves.

// buildDesigns are the designs whose construction is timed: the sweep's
// seven plus two explore-screen candidates with large state.
var buildDesigns = append(hybridmem.Designs(), "H2DSE-64-2-256", "DFC-256")

// attrLayers are the layers one decomposed run is split into.
var attrLayers = []string{"source", "core", "llc", "design", "build", "runner"}

// perLayer lists every per-layer metric with its unit, in report order;
// BENCHMARK.json lists the same names.
var perLayer = func() []metricDef {
	m := []metricDef{
		{"workload.ns_per_rec", "ns"},
		{"trace.gz_binary.ns_per_rec", "ns"},
		{"trace.text.ns_per_rec", "ns"},
		{"sim.ns_per_rec", "ns"},
		{"cachesim.ns_per_access", "ns"},
		{"cachesim.hit_frac", "ratio"},
	}
	for _, d := range hybridmem.Designs() {
		m = append(m, metricDef{"design." + d + ".ns_per_req", "ns"})
	}
	for _, d := range hybridmem.Designs()[1:] { // the baseline serves nothing from NM
		m = append(m, metricDef{"design." + d + ".nm_served_frac", "ratio"})
	}
	m = append(m, metricDef{"memsys.DDR4.ns_per_access", "ns"}, metricDef{"memsys.HBM2.ns_per_access", "ns"})
	for _, d := range buildDesigns {
		m = append(m, metricDef{"design." + d + ".build_ms", "ms"}, metricDef{"design." + d + ".build_mb", "MB"})
	}
	m = append(m,
		metricDef{"exp.overhead_us_per_run", "us"},
		metricDef{"dse.eval_frac", "ratio"},
		metricDef{"dse.fold_ms", "ms"},
		metricDef{"dse.enum_ms", "ms"},
		metricDef{"store.put_disk_ms", "ms"},
		metricDef{"store.get_mem_us", "us"},
		metricDef{"store.get_disk_us", "us"},
		metricDef{"serve.warm_handler_us", "us"},
		metricDef{"net.loopback_us", "us"},
		metricDef{"serve.cold_overhead_ms", "ms"},
		metricDef{"serve.job_overhead_ms", "ms"},
		metricDef{"cluster.dispatch_overhead_ms", "ms"},
	)
	for _, l := range attrLayers {
		m = append(m, metricDef{"attr." + l + "_frac", "ratio"})
	}
	return append(m, metricDef{"unattributed_frac", "ratio"}, metricDef{"tracing.overhead_ms", "ms"})
}()

// layerContext is the sweep a workload's traced run decomposes: every
// design of the sweep over the workload's own workloads at its own run
// length, so the layer numbers describe the work that workload does.
func layerContext(name string, sz *sizes) ([]string, uint64) {
	switch name {
	case "explore-screen":
		return sz.exploreWorkloads, sz.exploreInstr
	case "sweep-long":
		return sz.sweepWorkloads, sz.sweepInstr
	case "trace-replay":
		return []string{"lbm", "mcf"}, sz.replayInstr
	}
	return serveWorkloads, sz.serveInstr
}

// probe collects the per-layer values and check outcomes of a traced run.
type probe struct {
	ctx    context.Context
	e      env
	tr     *tracer
	root   int
	vals   map[string]float64
	checks []check
}

func (p *probe) fail(name, detail string) {
	p.checks = append(p.checks, check{Name: name, Detail: detail})
}

func (p *probe) pass(name string) { p.checks = append(p.checks, check{Name: name, OK: true}) }

// timed runs fn reps times and returns the median duration in seconds.
func timed(reps int, fn func(i int)) float64 {
	ds := make([]float64, reps)
	for i := range ds {
		start := time.Now()
		fn(i)
		ds[i] = time.Since(start).Seconds()
	}
	return median(ds)
}

// traceLayers is the traced part of a --trace 1 run: one traced
// iteration of the workload, then the layer probes. It prints the span
// self times, the attribution and the per-layer metrics to w.
func traceLayers(ctx context.Context, def workloadDef, e env, m *measurement, tr *tracer, w io.Writer) (map[string]metric, []check, error) {
	p := &probe{ctx: ctx, e: e, tr: tr, vals: map[string]float64{}}

	it := m.iters + 1
	tr.setIteration(it)
	root := tr.start("iteration", -1)
	start := time.Now()
	o := m.b.iterate(tr, root, it)
	p.vals["tracing.overhead_ms"] = (time.Since(start).Seconds() - m.wallP50) * 1000
	tr.end(root, int64(o.attempted))
	if o.failed > 0 {
		p.fail("traced iteration", fmt.Sprint(o.errs))
	}

	tr.setIteration(-1)
	p.root = tr.start("probes", -1)
	wls, instr := layerContext(def.name, e.sz)
	steps := []func() error{
		func() error { return p.decompose(wls, instr, w) },
		func() error { return p.buildCost() },
		func() error { return p.traceDecode(instr) },
		func() error { return p.search() },
		func() error { return p.storeCost() },
		func() error { return p.serveCost() },
		func() error { return p.clusterCost() },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, nil, err
		}
	}
	tr.end(p.root, 0)

	fmt.Fprintln(w, "span self times (traced iteration and probes):")
	fmt.Fprintf(w, "  %-34s %7s %12s %12s\n", "span", "calls", "total ms", "self ms")
	for _, lt := range tr.selfTimes() {
		fmt.Fprintf(w, "  %-34s %7d %12.3f %12.3f\n", lt.Name, lt.Calls, lt.Total*1000, lt.Self*1000)
	}
	metrics := map[string]metric{}
	fmt.Fprintln(w, "per-layer metrics:")
	for _, d := range perLayer {
		v, ok := p.vals[d.name]
		if !ok {
			return nil, nil, fmt.Errorf("per-layer metric %s was not measured", d.name)
		}
		metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.name, v, d.unit)
	}
	return metrics, p.checks, nil
}

// --- decomposition of one sweep into its layers ---

// memReq is one request a design received from the LLC.
type memReq struct {
	now   memtypes.Tick
	addr  memtypes.Addr
	write bool
}

// recordingMS passes every request through to the design it wraps and
// records it: the design's miss and write-back stream.
type recordingMS struct {
	memtypes.MemorySystem
	reqs   []memReq
	finish memtypes.Tick
}

func (r *recordingMS) Access(now memtypes.Tick, addr memtypes.Addr, write bool) memtypes.Tick {
	r.reqs = append(r.reqs, memReq{now, addr, write})
	return r.MemorySystem.Access(now, addr, write)
}

func (r *recordingMS) Finish(now memtypes.Tick) {
	r.finish = now
	r.MemorySystem.Finish(now)
}

// stubLatency is a typical far-memory round trip in CPU cycles.
const stubLatency = 200

// stubMS answers every request after a fixed latency, so a run over it
// costs the cores, the scheduler and the LLC but no design or DRAM work.
type stubMS struct{ st memtypes.MemStats }

func (s *stubMS) Name() string { return "stub" }
func (s *stubMS) Access(now memtypes.Tick, _ memtypes.Addr, _ bool) memtypes.Tick {
	return now + stubLatency
}
func (s *stubMS) Finish(memtypes.Tick)      {}
func (s *stubMS) Stats() *memtypes.MemStats { return &s.st }

// sliceSource serves one core's records from memory; it is both a
// sim.Source with the batch fast path and a trace.Source.
type sliceSource struct {
	recs []memtypes.Rec
	pos  int
}

func (s *sliceSource) Next() (uint64, memtypes.Addr, bool, bool) {
	if s.pos >= len(s.recs) {
		return 0, 0, false, false
	}
	r := s.recs[s.pos]
	s.pos++
	return r.Gap, r.Addr, r.Write, true
}

func (s *sliceSource) NextBatch(dst []memtypes.Rec) int {
	n := copy(dst, s.recs[s.pos:])
	s.pos += n
	return n
}

// generate drains every core's generator through the run loop's
// 64-record buffer and returns the record count.
func generate(spec workload.Spec, sys config.System, keep bool) (int64, [][]memtypes.Rec) {
	var buf [64]memtypes.Rec
	var n int64
	var recs [][]memtypes.Rec
	for c := 0; c < config.Cores; c++ {
		s := workload.NewStream(spec, c, sys.Scale, sys.InstrPerCore, sys.Seed)
		var core []memtypes.Rec
		for k := s.NextBatch(buf[:]); k > 0; k = s.NextBatch(buf[:]) {
			n += int64(k)
			if keep {
				core = append(core, buf[:k]...)
			}
		}
		recs = append(recs, core)
	}
	return n, recs
}

// globalOrder interleaves the cores' records by instruction position,
// the order in which the cores' accesses reach the shared LLC.
func globalOrder(recs [][]memtypes.Rec) []memtypes.Rec {
	srcs := make([]trace.Source, len(recs))
	for c := range recs {
		srcs[c] = &sliceSource{recs: recs[c]}
	}
	it := trace.NewInterleaver(srcs)
	var out []memtypes.Rec
	for {
		_, r, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, memtypes.Rec{Gap: r.Gap, Addr: r.Addr, Write: r.Write})
	}
}

// decompose splits every run of the context sweep into its layers, each
// timed on its own:
//
//   - source: the workload generators, drained as the run loop does;
//   - core: sim.RunSources over the run's records held in memory, with a
//     fixed-latency memory system, minus the LLC's share below;
//   - llc: the records replayed into a fresh cachesim.Cache;
//   - build: design.Spec.Build;
//   - design: the design's own request stream, captured from a full run
//     outside timing, replayed into the built instance (its DRAM device
//     calls included);
//   - runner: exp.Runner's per-run overhead, measured by overheadPerRun.
//
// It sets the attr.* shares against untraced RunAll calls of the same
// sweep, and the per-record costs of every layer.
func (p *probe) decompose(wls []string, instr uint64, w io.Writer) error {
	designs := hybridmem.Designs()
	cfg := runConfig(instr, p.e.seed)
	opts := hybridmem.SweepOptions{Parallelism: 1, Designs: designs, Workloads: wls}
	var rerr error
	sweepS := timed(3, func(int) {
		sp := p.tr.start("hybridmem.RunAll", p.root)
		_, rerr = hybridmem.RunAll(cfg, opts)
		p.tr.end(sp, int64(len(designs)*len(wls)))
	})
	if rerr != nil {
		return rerr
	}

	sys := config.Scaled(config.DefaultScale, 1)
	sys.InstrPerCore, sys.Seed = instr, p.e.seed
	attr := map[string]float64{}
	var recs, accesses, llcAcc, llcMiss int64
	reqs := map[string]int64{}
	designS := map[string]float64{}
	servedNM, requests := map[string]uint64{}, map[string]uint64{}
	var hybridStreams [][]memReq
	stateOK := true
	for _, wname := range wls {
		spec, _ := workload.ByName(wname)
		_, cores := generate(spec, sys, true)
		order := globalOrder(cores)
		for _, d := range designs {
			dspec, err := design.Parse(d)
			if err != nil {
				return err
			}
			ms, nm, fm, err := dspec.Build(sys)
			if err != nil {
				return err
			}
			rec := &recordingMS{MemorySystem: ms}
			res := sim.Run(spec, rec, nm, fm, sys)
			llcAcc += int64(res.LLCAccesses)
			llcMiss += int64(res.LLCMisses)
			servedNM[d] += res.Mem.ServedNM
			requests[d] += res.Mem.Requests

			run := p.tr.start("run", p.root)
			sp := p.tr.start("workload.Stream.NextBatch", run)
			n, _ := generate(spec, sys, false)
			p.tr.end(sp, n)
			attr["source"] += p.tr.dur(sp)
			recs += n

			srcs := make([]sim.Source, len(cores))
			for c := range cores {
				srcs[c] = &sliceSource{recs: cores[c]}
			}
			sp = p.tr.start("sim.RunSources(stub)", run)
			sim.RunSources(wname, srcs, sim.MLPFor(spec), &stubMS{}, nil, nil, sys)
			p.tr.end(sp, n)
			attr["core"] += p.tr.dur(sp)

			llc := cachesim.New(sys.LLCBytes, config.LLCAssoc, memtypes.CPULineBytes)
			sp = p.tr.start("cachesim.Cache.Access", run)
			for _, r := range order {
				llc.Access(r.Addr, r.Write)
			}
			p.tr.end(sp, int64(len(order)))
			attr["llc"] += p.tr.dur(sp)
			attr["core"] -= p.tr.dur(sp)
			accesses += int64(len(order))

			sp = p.tr.start("design.Spec.Build", run)
			fresh, _, _, err := dspec.Build(sys)
			p.tr.end(sp, 1)
			if err != nil {
				return err
			}
			attr["build"] += p.tr.dur(sp)

			sp = p.tr.start("design."+d+".Access", run)
			for _, q := range rec.reqs {
				fresh.Access(q.now, q.addr, q.write)
			}
			fresh.Finish(rec.finish)
			p.tr.end(sp, int64(len(rec.reqs)))
			attr["design"] += p.tr.dur(sp)
			designS[d] += p.tr.dur(sp)
			reqs[d] += int64(len(rec.reqs))
			p.tr.end(run, 1)

			stateOK = stateOK && *fresh.Stats() == res.Mem
			if d == "HYBRID2" {
				hybridStreams = append(hybridStreams, rec.reqs)
			}
		}
	}
	if stateOK {
		p.pass("replayed designs reproduce their runs' traffic")
	} else {
		p.fail("replayed designs reproduce their runs' traffic", "a replayed design's counters differ from its run's")
	}

	overhead, err := p.overheadPerRun(wls[0])
	if err != nil {
		return err
	}
	runs := len(designs) * len(wls)
	attr["runner"] = overhead * float64(runs)

	p.vals["workload.ns_per_rec"] = attr["source"] * 1e9 / float64(recs)
	p.vals["sim.ns_per_rec"] = attr["core"] * 1e9 / float64(recs)
	p.vals["cachesim.ns_per_access"] = attr["llc"] * 1e9 / float64(accesses)
	p.vals["cachesim.hit_frac"] = 1 - float64(llcMiss)/float64(llcAcc)
	for _, d := range designs {
		p.vals["design."+d+".ns_per_req"] = designS[d] * 1e9 / float64(max(reqs[d], 1))
		if d != "Baseline" {
			p.vals["design."+d+".nm_served_frac"] = float64(servedNM[d]) / float64(max(requests[d], 1))
		}
	}
	var sum float64
	fmt.Fprintf(w, "attribution of one decomposed sweep (%d runs, %d instr/core) against untraced RunAll %.3f s:\n", runs, instr, sweepS)
	for _, l := range attrLayers {
		sum += attr[l]
		p.vals["attr."+l+"_frac"] = attr[l] / sweepS
		fmt.Fprintf(w, "  %-8s %9.3f s  %6.1f%%\n", l, attr[l], 100*attr[l]/sweepS)
	}
	p.vals["unattributed_frac"] = 1 - sum/sweepS
	fmt.Fprintf(w, "  %-8s %9.3f s  %6.1f%%\n", "rest", sweepS-sum, 100*(1-sum/sweepS))

	// The DRAM devices on their own: the HYBRID2 request streams replayed
	// as 64 B accesses into fresh devices.
	for _, dev := range []struct {
		name string
		cfg  memsys.Config
	}{{"DDR4", memsys.DDR4Config()}, {"HBM2", memsys.HBM2Config()}} {
		var secs float64
		var n int64
		for _, stream := range hybridStreams {
			d := memsys.New(dev.cfg)
			sp := p.tr.start("memsys."+dev.name+".Access", p.root)
			for _, q := range stream {
				d.Access(q.now, q.addr, memtypes.CPULineBytes, q.write)
			}
			p.tr.end(sp, int64(len(stream)))
			secs += p.tr.dur(sp)
			n += int64(len(stream))
		}
		p.vals["memsys."+dev.name+".ns_per_access"] = secs * 1e9 / float64(max(n, 1))
	}
	return nil
}

// --- probes ---

// buildCost times design.Spec.Build and the bytes it allocates.
func (p *probe) buildCost() error {
	sys := config.Scaled(config.DefaultScale, 1)
	sys.InstrPerCore, sys.Seed = 1, p.e.seed
	for _, d := range buildDesigns {
		spec, err := design.Parse(d)
		if err != nil {
			return err
		}
		var mbs []float64
		var berr error
		secs := timed(p.e.sz.probeReps, func(int) {
			a0 := totalAllocMB()
			sp := p.tr.start("design.Spec.Build", p.root)
			_, _, _, err := spec.Build(sys)
			p.tr.end(sp, 1)
			mbs = append(mbs, totalAllocMB()-a0)
			if err != nil {
				berr = err
			}
		})
		if berr != nil {
			return berr
		}
		p.vals["design."+d+".build_ms"] = secs * 1000
		p.vals["design."+d+".build_mb"] = median(mbs)
	}
	return nil
}

// traceDecode drains the two trace-replay captures through StreamReader
// sources, core by core in 64-record batches as the run loop pulls them.
func (p *probe) traceDecode(instr uint64) error {
	traces, err := replayInputs(instr, p.e.seed)
	if err != nil {
		return err
	}
	for _, t := range traces {
		name := "trace.text"
		if t.gzip {
			name = "trace.gz_binary"
		}
		var n int64
		var derr error
		secs := timed(p.e.sz.probeReps, func(int) {
			sp := p.tr.start(name+".NextBatch", p.root)
			n, derr = drainTrace(t.data)
			p.tr.end(sp, n)
		})
		if derr != nil {
			return derr
		}
		p.vals[name+".ns_per_rec"] = secs * 1e9 / float64(n)
	}
	return nil
}

func drainTrace(data []byte) (int64, error) {
	sr, err := trace.NewStreamReader(bytes.NewReader(data), config.Cores, 0)
	if err != nil {
		return 0, err
	}
	srcs := make([]*trace.CoreStream, config.Cores)
	for c := range srcs {
		srcs[c] = sr.Source(c)
	}
	var buf [64]memtypes.Rec
	for live := true; live; {
		live = false
		for _, s := range srcs {
			if s.NextBatch(buf[:]) > 0 {
				live = true
			}
		}
	}
	return int64(sr.Records()), sr.Err()
}

// overheadPerRun is exp.Runner.ResultErr minus a direct Build + sim.Run
// of the same short run, median of alternating pairs, in seconds.
func (p *probe) overheadPerRun(wname string) (float64, error) {
	const instr = 10_000
	spec, _ := workload.ByName(wname)
	dspec, _ := design.Parse("Baseline")
	sys := config.Scaled(config.DefaultScale, 1)
	sys.InstrPerCore = instr
	var diffs []float64
	var ferr error
	for i := 0; i < 20*p.e.sz.probeReps; i++ {
		seed := p.e.seed<<32 | uint64(i+1)
		sys.Seed = seed
		var viaRunner, direct float64
		var a, b sim.Result
		runner := func() {
			start := time.Now()
			sp := p.tr.start("exp.Runner.ResultErr", p.root)
			r := &exp.Runner{Scale: config.DefaultScale, InstrPerCore: instr, Seed: seed}
			var err error
			if a, err = r.ResultErr(spec, "Baseline", 1); err != nil {
				ferr = err
			}
			p.tr.end(sp, 1)
			viaRunner = time.Since(start).Seconds()
		}
		plain := func() {
			start := time.Now()
			sp := p.tr.start("design.Spec.Build+sim.Run", p.root)
			defer p.tr.end(sp, 1)
			ms, nm, fm, err := dspec.Build(sys)
			if err != nil {
				ferr = err
				return
			}
			b = sim.Run(spec, ms, nm, fm, sys)
			direct = time.Since(start).Seconds()
		}
		if i%2 == 0 {
			runner()
			plain()
		} else {
			plain()
			runner()
		}
		if ferr != nil {
			return 0, ferr
		}
		if a != b {
			p.fail("runner result equals a direct run", "results differ")
			break
		}
		diffs = append(diffs, viaRunner-direct)
	}
	v := median(diffs)
	p.vals["exp.overhead_us_per_run"] = v * 1e6
	return v, nil
}

// search runs the explore-screen search through dse.Search with an
// evaluator that forwards to local runners, timing the evaluations and
// the frontier folds, and checks its document against hybridmem.Explore.
func (p *probe) search() error {
	sz := p.e.sz
	var evalS, foldS float64
	runners := map[uint64]*exp.Runner{}
	seed := exploreOptions(p.e, 0).Seed
	opts := dse.Options{
		Families: exploreFamilies, Workloads: sz.exploreWorkloads,
		Budget: sz.exploreBudget, BatchSize: sz.exploreBatch, Seed: seed,
		Scale: config.DefaultScale, InstrPerCore: sz.exploreInstr, SimSeed: seed, Ratio16: 1,
		ScreenInstrPerCore: sz.exploreScreenInstr, ScreenBudget: sz.exploreScreenBudget,
		Parallelism: 1, MaxPerParam: sz.exploreMaxPerParam,
		Phase: func(name string, d time.Duration) {
			if name == "frontier_fold" {
				foldS += d.Seconds()
			}
		},
		Eval: func(ctx context.Context, cfg dse.EvalConfig, runs []dse.EvalRun) ([]dse.EvalResult, error) {
			start := time.Now()
			sp := p.tr.start("dse.Eval", p.root)
			defer func() {
				p.tr.end(sp, int64(len(runs)))
				evalS += time.Since(start).Seconds()
			}()
			r := runners[cfg.InstrPerCore]
			if r == nil {
				r = &exp.Runner{Scale: cfg.Scale, InstrPerCore: cfg.InstrPerCore, Seed: cfg.SimSeed, Parallelism: 1}
				runners[cfg.InstrPerCore] = r
			}
			specs := make([]exp.RunSpec, len(runs))
			for i, run := range runs {
				wl, ok := workload.ByName(run.Workload)
				if !ok {
					return nil, fmt.Errorf("unknown workload %q", run.Workload)
				}
				specs[i] = exp.RunSpec{Workload: wl, Design: run.Design, Ratio16: run.Ratio16}
			}
			res, errs := r.ResultsParallelEach(ctx, specs)
			out := make([]dse.EvalResult, len(runs))
			for i, sr := range res {
				out[i] = dse.EvalResult{Cycles: uint64(sr.Cycles), WriteBytes: sr.Mem.NMWriteBytes + sr.Mem.FMWriteBytes}
				if errs[i] != nil {
					out[i].Err = errs[i].Error()
				}
			}
			return out, nil
		},
	}
	start := time.Now()
	sp := p.tr.start("dse.Search", p.root)
	res, err := dse.Search(p.ctx, opts)
	p.tr.end(sp, int64(len(res.Evaluated)+len(res.Screened)))
	wall := time.Since(start).Seconds()
	if err != nil {
		return err
	}
	p.vals["dse.eval_frac"] = evalS / wall
	p.vals["dse.fold_ms"] = foldS * 1000

	doc, err := api.Encode(res.APIDoc())
	if err != nil {
		return err
	}
	pub, err := hybridmem.Explore(p.ctx, exploreOptions(p.e, 0))
	if err != nil {
		return err
	}
	if wire, _ := pub.WireJSON(); bytes.Equal(wire, doc) {
		p.pass("dse.Search with a forwarding evaluator equals hybridmem.Explore")
	} else {
		p.fail("dse.Search with a forwarding evaluator equals hybridmem.Explore", "documents differ")
	}

	enum := design.EnumOptions{MaxPerParam: sz.exploreMaxPerParam}
	var eerr error
	secs := timed(p.e.sz.probeReps, func(int) {
		sp := p.tr.start("design.Info.Enumerate+Neighbors", p.root)
		var n int64
		for _, f := range exploreFamilies {
			info, _ := design.LookupInfo(f)
			specs, err := info.Enumerate(enum)
			if err != nil {
				eerr = err
			}
			for _, s := range specs {
				nb, err := info.Neighbors(s, enum)
				if err != nil {
					eerr = err
				}
				n += int64(1 + len(nb))
			}
		}
		p.tr.end(sp, n)
	})
	p.vals["dse.enum_ms"] = secs * 1000
	return eerr
}

// runDoc is a representative stored document: one run's wire form.
func runDoc(seed uint64) ([]byte, error) {
	r, err := hybridmem.Run("HYBRID2", "mcf", runConfig(10_000, seed))
	if err != nil {
		return nil, err
	}
	return api.Encode(api.Run{Schema: api.SchemaVersion, Result: wire(r)})
}

// storeCost times the result store's tiers on a run document.
func (p *probe) storeCost() error {
	st, err := store.Open(store.Options{Dir: filepath.Join(p.e.tmpRoot, "store-probe")})
	if err != nil {
		return err
	}
	doc, err := runDoc(p.e.seed)
	if err != nil {
		return err
	}
	keys := make([]string, 4*p.e.sz.probeReps)
	for i := range keys {
		keys[i] = store.Fingerprint("bench", strconv.Itoa(i))
	}
	put := timed(len(keys), func(i int) {
		sp := p.tr.start("store.PutDisk", p.root)
		st.PutDisk(keys[i], doc)
		p.tr.end(sp, 1)
	})
	getDisk := timed(40*p.e.sz.probeReps, func(i int) {
		sp := p.tr.start("store.GetDisk", p.root)
		st.GetDisk(keys[i%len(keys)])
		p.tr.end(sp, 1)
	})
	st.Put(keys[0], doc)
	getMem := timed(40*p.e.sz.probeReps, func(int) {
		sp := p.tr.start("store.Get(mem)", p.root)
		st.Get(keys[0])
		p.tr.end(sp, 1)
	})
	if data, tier, ok := st.Get(keys[0]); !ok || tier != store.TierMem || !bytes.Equal(data, doc) {
		p.fail("store returns what was put", "memory tier miss or mismatch")
	}
	p.vals["store.put_disk_ms"] = put * 1000
	p.vals["store.get_disk_us"] = getDisk * 1e6
	p.vals["store.get_mem_us"] = getMem * 1e6
	return nil
}

// overheadDesigns × overheadWorkloads is the job the job and dispatch
// overhead probes run: the sweep shape of serve-mixed's jobs, made of
// cheap runs.
var overheadDesigns, overheadWorkloads = []string{"Baseline", "DFC"}, []string{"namd", "xz"}

// serveCost times the server's handler in process (no network), over
// loopback, and the cold-run and job paths against the engine calls
// they wrap.
func (p *probe) serveCost() error {
	dir := filepath.Join(p.e.tmpRoot, "serve-probe")
	srv, err := serve.New(serve.Options{StoreDir: filepath.Join(dir, "store"), StateDir: filepath.Join(dir, "state"), Parallelism: 1})
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	h := srv.Handler()
	instr := p.e.sz.serveInstr
	cfg := func(seed uint64) api.Config {
		return api.Config{Scale: config.DefaultScale, NMRatio16: 1, InstrPerCore: instr, Seed: seed}
	}
	call := func(method, path string, body []byte, want int) ([]byte, error) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if rr.Code != want {
			return nil, fmt.Errorf("%s %s: status %d: %s", method, path, rr.Code, rr.Body.Bytes())
		}
		return rr.Body.Bytes(), nil
	}
	runBody := func(d, wl string, seed uint64) []byte {
		return mustJSON(map[string]any{"design": d, "workload": wl, "config": cfg(seed)})
	}

	warm := runBody("HYBRID2", "mcf", p.e.seed)
	if _, err := call("POST", "/v1/run", warm, http.StatusOK); err != nil {
		return err
	}
	var herr error
	handler := timed(40*p.e.sz.probeReps, func(int) {
		sp := p.tr.start("serve.Handler(warm)", p.root)
		_, err := call("POST", "/v1/run", warm, http.StatusOK)
		p.tr.end(sp, 1)
		if err != nil {
			herr = err
		}
	})
	ts := httptest.NewServer(h)
	defer ts.Close()
	client := ts.Client()
	loop := timed(40*p.e.sz.probeReps, func(int) {
		sp := p.tr.start("net.loopback(warm)", p.root)
		resp, err := client.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(warm))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("loopback warm run: status %d", resp.StatusCode)
			}
		}
		p.tr.end(sp, 1)
		if err != nil {
			herr = err
		}
	})
	if herr != nil {
		return herr
	}
	p.vals["serve.warm_handler_us"] = handler * 1e6
	p.vals["net.loopback_us"] = (loop - handler) * 1e6

	// The overheads are differences of two timings of the same simulation,
	// so the probes use cheap runs: the simulation's own noise would
	// otherwise swamp them.
	spec, _ := workload.ByName("namd")
	var colds, jobs []float64
	for i := 0; i < 2*p.e.sz.probeReps; i++ {
		seed := p.e.seed<<32 | 1<<20 | uint64(i)
		start := time.Now()
		sp := p.tr.start("serve.Handler(cold)", p.root)
		_, err := call("POST", "/v1/run", runBody("Baseline", "namd", seed), http.StatusOK)
		p.tr.end(sp, 1)
		if err != nil {
			return err
		}
		handlerS := time.Since(start).Seconds()
		start = time.Now()
		sp = p.tr.start("exp.Runner.ResultErr", p.root)
		_, err = (&exp.Runner{Scale: config.DefaultScale, InstrPerCore: instr, Seed: seed}).ResultErr(spec, "Baseline", 1)
		p.tr.end(sp, 1)
		if err != nil {
			return err
		}
		colds = append(colds, handlerS-time.Since(start).Seconds())
	}
	for i := 0; i < p.e.sz.probeReps; i++ {
		seed := p.e.seed<<32 | 2<<20 | uint64(i)
		start := time.Now()
		sp := p.tr.start("serve.Handler(job)", p.root)
		data, err := call("POST", "/v1/sweep", mustJSON(map[string]any{"designs": overheadDesigns, "workloads": overheadWorkloads, "config": cfg(seed)}), http.StatusAccepted)
		if err == nil {
			var sub struct {
				JobID string `json:"job_id"`
			}
			if err = json.Unmarshal(data, &sub); err == nil {
				if _, err = call("GET", "/v1/jobs/"+sub.JobID+"/events", nil, http.StatusOK); err == nil {
					_, err = call("GET", "/v1/jobs/"+sub.JobID+"/result", nil, http.StatusOK)
				}
			}
		}
		p.tr.end(sp, 1)
		if err != nil {
			return err
		}
		jobS := time.Since(start).Seconds()
		specs, err := exp.SweepSpecsByName(overheadDesigns, overheadWorkloads, 1)
		if err != nil {
			return err
		}
		start = time.Now()
		sp = p.tr.start("exp.Runner.ResultsParallel", p.root)
		_, err = (&exp.Runner{Scale: config.DefaultScale, InstrPerCore: instr, Seed: seed, Parallelism: 1}).ResultsParallel(specs)
		p.tr.end(sp, int64(len(specs)))
		if err != nil {
			return err
		}
		jobs = append(jobs, jobS-time.Since(start).Seconds())
	}
	p.vals["serve.cold_overhead_ms"] = median(colds) * 1000
	p.vals["serve.job_overhead_ms"] = median(jobs) * 1000
	return os.RemoveAll(dir)
}

// clusterCost times a coordinator with one loopback runner against the
// runner call it dispatches to.
func (p *probe) clusterCost() error {
	instr := p.e.sz.serveInstr
	specs, err := exp.SweepSpecsByName(overheadDesigns, overheadWorkloads, 1)
	if err != nil {
		return err
	}
	runs := make([]cluster.Run, len(specs))
	for i, s := range specs {
		runs[i] = cluster.Run{Design: s.Design, Workload: s.Workload.Name, Ratio16: s.Ratio16}
	}
	var diffs []float64
	for i := 0; i < p.e.sz.probeReps; i++ {
		seed := p.e.seed<<32 | 3<<20 | uint64(i)
		c := cluster.NewCoordinator(cluster.CoordinatorOptions{})
		c.AttachLoopback(1, 1)
		start := time.Now()
		sp := p.tr.start("cluster.Coordinator.Run", p.root)
		outs, err := c.Run(p.ctx, cluster.Config{Scale: config.DefaultScale, InstrPerCore: instr, Seed: seed}, runs, nil)
		p.tr.end(sp, int64(len(runs)))
		if err != nil {
			return err
		}
		for _, o := range outs {
			if o.Err != "" {
				return fmt.Errorf("cluster run: %s", o.Err)
			}
		}
		coordS := time.Since(start).Seconds()
		start = time.Now()
		sp = p.tr.start("exp.Runner.ResultsParallelEach", p.root)
		_, errs := (&exp.Runner{Scale: config.DefaultScale, InstrPerCore: instr, Seed: seed, Parallelism: 1}).ResultsParallelEach(p.ctx, specs)
		p.tr.end(sp, int64(len(specs)))
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		diffs = append(diffs, coordS-time.Since(start).Seconds())
	}
	p.vals["cluster.dispatch_overhead_ms"] = median(diffs) * 1000
	return nil
}
