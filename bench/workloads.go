package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"hybridmem"
	"hybridmem/internal/config"
	"hybridmem/internal/sim"
	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
)

// exploreFamilies are the families explore-screen searches: the paper's
// H2DSE space plus three families whose construction cost differs
// widely, so per-run set-up shows next to the short screening runs.
var exploreFamilies = []string{"H2DSE", "DFC", "MPOD", "LGM"}

// replayDesigns are the designs every trace-replay pass replays on.
var replayDesigns = []string{"Baseline", "DFC", "HYBRID2"}

func runConfig(instr, seed uint64) hybridmem.Config {
	return hybridmem.Config{Scale: config.DefaultScale, NMRatio16: 1, InstrPerCore: instr, Seed: seed}
}

// minstr is the nominal simulated work of n runs: 8 cores × instr each.
func minstr(n int, instr uint64) float64 {
	return float64(n) * config.Cores * float64(instr) / 1e6
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// failure records one failed operation in o.
func (o *iterOut) failure(format string, args ...any) {
	o.failed++
	if len(o.errs) < 3 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain result structs always encode
	}
	return data
}

// --- explore-screen ---

type exploreBench struct {
	e env
	// base holds the warm-up search's baseline cycles per workload at
	// each fidelity, computed in set-up for the speedup cross-check.
	base map[uint64][]uint64
	res  hybridmem.ExploreResult // of the warm-up search
	outs map[uint64][]byte       // first document of each search seed
}

// exploreOptions are the options of iteration iter's search: the run
// cycles through exploreSeeds seeds derived from --seed.
func exploreOptions(e env, iter int) hybridmem.ExploreOptions {
	sz := e.sz
	seed := (e.seed-1)*uint64(sz.exploreSeeds) + uint64(iter%sz.exploreSeeds) + 1
	return hybridmem.ExploreOptions{
		Families:           exploreFamilies,
		Workloads:          sz.exploreWorkloads,
		Budget:             sz.exploreBudget,
		BatchSize:          sz.exploreBatch,
		Seed:               seed,
		Config:             runConfig(sz.exploreInstr, seed),
		ScreenInstrPerCore: sz.exploreScreenInstr,
		ScreenBudget:       sz.exploreScreenBudget,
		Parallelism:        1,
		MaxPerParam:        sz.exploreMaxPerParam,
	}
}

func setupExplore(e env) (bench, error) {
	sz := e.sz
	b := &exploreBench{e: e, base: map[uint64][]uint64{}, outs: map[uint64][]byte{}}
	seed := exploreOptions(e, 0).Seed
	for _, instr := range []uint64{sz.exploreInstr, sz.exploreScreenInstr} {
		res, err := hybridmem.RunAll(runConfig(instr, seed), hybridmem.SweepOptions{
			Parallelism: 1, Designs: []string{"Baseline"}, Workloads: sz.exploreWorkloads,
		})
		if err != nil {
			return nil, err
		}
		for _, r := range res {
			b.base[instr] = append(b.base[instr], r.Cycles)
		}
	}
	return b, nil
}

func feasible(pts []hybridmem.ExplorePoint) int {
	n := 0
	for _, p := range pts {
		if !p.Infeasible {
			n++
		}
	}
	return n
}

func (b *exploreBench) iterate(tr *tracer, parent, iter int) iterOut {
	o := iterOut{attempted: 1}
	opts := exploreOptions(b.e, iter)
	start := time.Now()
	sp := tr.start("hybridmem.Explore", parent)
	res, err := hybridmem.Explore(context.Background(), opts)
	tr.end(sp, int64(len(res.Evaluated)+len(res.Screened)))
	o.ops = append(o.ops, msSince(start))
	if err != nil {
		o.failure("explore: %v", err)
		return o
	}
	if iter == 0 {
		b.res = res
	}
	if o.out, err = res.WireJSON(); err != nil {
		o.failure("explore: %v", err)
	}
	if first, ok := b.outs[opts.Seed]; !ok {
		b.outs[opts.Seed] = o.out
	} else if !bytes.Equal(o.out, first) {
		o.failure("search seed %d: document differs from the first search's", opts.Seed)
	}
	// Every feasible candidate and the baseline run once per workload,
	// at their fidelity.
	wls := len(opts.Workloads)
	o.minstr = minstr((feasible(res.Evaluated)+1)*wls, opts.Config.InstrPerCore) +
		minstr((feasible(res.Screened)+1)*wls, opts.ScreenInstrPerCore)
	return o
}

// finish recomputes one seeded sample of the warm-up search's points at
// each fidelity through RunAll and checks the search's speedup for it
// bit for bit.
func (b *exploreBench) finish(first iterOut) (string, []check, map[string]any) {
	opts := exploreOptions(b.e, 0)
	rng := rand.New(rand.NewPCG(b.e.seed, 1))
	c := check{Name: "explore speedups equal RunAll geomeans", OK: true}
	for _, pick := range []struct {
		pts   []hybridmem.ExplorePoint
		instr uint64
	}{{b.res.Evaluated, opts.Config.InstrPerCore}, {b.res.Screened, opts.ScreenInstrPerCore}} {
		var cands []hybridmem.ExplorePoint
		for _, p := range pick.pts {
			if !p.Infeasible {
				cands = append(cands, p)
			}
		}
		if len(cands) == 0 {
			c.OK, c.Detail = false, "no feasible point to check"
			break
		}
		p := cands[rng.IntN(len(cands))]
		res, err := hybridmem.RunAll(runConfig(pick.instr, opts.Seed), hybridmem.SweepOptions{
			Parallelism: 1, Designs: []string{p.Design}, Workloads: opts.Workloads,
		})
		if err != nil {
			c.OK, c.Detail = false, err.Error()
			break
		}
		// The search's own geometric mean, in its own operation order.
		var logSum float64
		for i, r := range res {
			logSum += math.Log(float64(b.base[pick.instr][i]) / float64(r.Cycles))
		}
		if got := math.Exp(logSum / float64(len(res))); got != p.Speedup {
			c.OK, c.Detail = false, fmt.Sprintf("%s at %d instr: search %v, RunAll %v", p.Design, pick.instr, p.Speedup, got)
			break
		}
	}
	info := map[string]any{"searches": len(b.outs), "evaluated": len(b.res.Evaluated), "screened": len(b.res.Screened), "space_size": b.res.SpaceSize}
	return digestOf(first.out), []check{c}, info
}

func (b *exploreBench) close() {}

// --- sweep-long ---

type sweepBench struct {
	e    env
	cfg  hybridmem.Config
	opts hybridmem.SweepOptions
	// refs are direct hybridmem.Run results of HYBRID2 and MPOD on the
	// sweep's first two workloads, computed in set-up.
	refs map[[2]string]hybridmem.Result
	res  []hybridmem.Result // of the warm-up sweep
	out  []byte             // the warm-up sweep's document
}

func setupSweep(e env) (bench, error) {
	b := &sweepBench{
		e:    e,
		cfg:  runConfig(e.sz.sweepInstr, e.seed),
		opts: hybridmem.SweepOptions{Parallelism: 1, Designs: hybridmem.Designs(), Workloads: e.sz.sweepWorkloads},
		refs: map[[2]string]hybridmem.Result{},
	}
	for _, d := range []string{"HYBRID2", "MPOD"} {
		w := b.opts.Workloads[len(b.refs)%len(b.opts.Workloads)]
		r, err := hybridmem.Run(d, w, b.cfg)
		if err != nil {
			return nil, err
		}
		b.refs[[2]string{d, w}] = r
	}
	return b, nil
}

func (b *sweepBench) iterate(tr *tracer, parent, iter int) iterOut {
	o := iterOut{attempted: 1}
	start := time.Now()
	sp := tr.start("hybridmem.RunAll", parent)
	res, err := hybridmem.RunAll(b.cfg, b.opts)
	tr.end(sp, int64(len(res)))
	o.ops = append(o.ops, msSince(start))
	if err != nil {
		o.failure("sweep: %v", err)
		return o
	}
	o.out = mustJSON(res)
	if iter == 0 {
		b.res, b.out = res, o.out
	} else if !bytes.Equal(o.out, b.out) {
		o.failure("sweep document differs from the warm-up's")
	}
	o.minstr = minstr(len(res), b.cfg.InstrPerCore)
	return o
}

func (b *sweepBench) finish(first iterOut) (string, []check, map[string]any) {
	c := check{Name: "RunAll results equal hybridmem.Run", OK: true}
	found := 0
	for _, r := range b.res {
		if ref, ok := b.refs[[2]string{r.Design, r.Workload}]; ok {
			found++
			if r != ref {
				c.OK, c.Detail = false, fmt.Sprintf("%s/%s differs", r.Design, r.Workload)
			}
		}
	}
	if found != len(b.refs) {
		c.OK, c.Detail = false, fmt.Sprintf("%d of %d sampled pairs in the sweep", found, len(b.refs))
	}
	// The paper's headline number, reported (not gated) so a model change
	// is visible next to the timings.
	base := map[string]uint64{}
	var logSum float64
	n := 0
	for _, r := range b.res {
		if r.Design == "Baseline" {
			base[r.Workload] = r.Cycles
		}
	}
	for _, r := range b.res {
		if r.Design == "HYBRID2" && base[r.Workload] > 0 {
			logSum += math.Log(float64(base[r.Workload]) / float64(r.Cycles))
			n++
		}
	}
	info := map[string]any{"hybrid2_speedup_geomean": math.Exp(logSum / float64(max(n, 1)))}
	return digestOf(first.out), []check{c}, info
}

func (b *sweepBench) close() {}

// --- trace-replay ---

// replayTrace is one captured trace held in memory.
type replayTrace struct {
	workload string
	format   trace.Format
	gzip     bool
	data     []byte
	mlp      int
}

type replayBench struct {
	e      env
	cfg    hybridmem.Config
	traces []replayTrace
	// refs[i][j] is the direct run of traces[i]'s workload on
	// replayDesigns[j], computed in set-up.
	refs [][]hybridmem.Result
}

// encodeTrace captures a built-in workload the way cmd/tracegen does:
// one generator stream per core, interleaved in capture order.
func encodeTrace(name string, instr, seed uint64, format trace.Format, gz bool) ([]byte, int64, error) {
	spec, ok := workload.ByName(name)
	if !ok {
		return nil, 0, fmt.Errorf("unknown workload %q", name)
	}
	srcs := make([]trace.Source, config.Cores)
	for c := range srcs {
		srcs[c] = workload.NewStream(spec, c, config.DefaultScale, instr, seed)
	}
	var buf bytes.Buffer
	sw := trace.NewStreamWriter(&buf, format, gz)
	it := trace.NewInterleaver(srcs)
	for {
		core, rec, ok := it.Next()
		if !ok {
			break
		}
		if err := sw.Append(core, rec); err != nil {
			return nil, 0, err
		}
	}
	if err := sw.Close(); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), int64(sw.Records()), nil
}

// replayInputs are the two captures: lbm as gzip-compressed binary and
// mcf as plain text, so both decoders are on the path.
func replayInputs(instr, seed uint64) ([]replayTrace, error) {
	traces := []replayTrace{
		{workload: "lbm", format: trace.FormatBinary, gzip: true},
		{workload: "mcf", format: trace.FormatText},
	}
	for i := range traces {
		t := &traces[i]
		var err error
		if t.data, _, err = encodeTrace(t.workload, instr, seed, t.format, t.gzip); err != nil {
			return nil, err
		}
		spec, _ := workload.ByName(t.workload)
		t.mlp = sim.MLPFor(spec)
	}
	return traces, nil
}

func setupReplay(e env) (bench, error) {
	b := &replayBench{e: e, cfg: runConfig(e.sz.replayInstr, e.seed)}
	var err error
	if b.traces, err = replayInputs(e.sz.replayInstr, e.seed); err != nil {
		return nil, err
	}
	for _, t := range b.traces {
		row := make([]hybridmem.Result, len(replayDesigns))
		for j, d := range replayDesigns {
			if row[j], err = hybridmem.Run(d, t.workload, b.cfg); err != nil {
				return nil, err
			}
		}
		b.refs = append(b.refs, row)
	}
	return b, nil
}

func (b *replayBench) iterate(tr *tracer, parent, iter int) iterOut {
	var o iterOut
	var all []hybridmem.Result
	for i, t := range b.traces {
		for j, d := range replayDesigns {
			o.attempted++
			start := time.Now()
			sp := tr.start("hybridmem.ReplayTrace", parent)
			res, err := hybridmem.ReplayTrace(d, t.workload, bytes.NewReader(t.data), hybridmem.ReplayOptions{MLP: t.mlp}, b.cfg)
			tr.end(sp, 1)
			o.ops = append(o.ops, msSince(start))
			switch {
			case err != nil:
				o.failure("replay %s/%s: %v", d, t.workload, err)
			case res != b.refs[i][j]:
				o.failure("replay %s/%s differs from the direct run", d, t.workload)
			}
			all = append(all, res)
			o.minstr += minstr(1, b.cfg.InstrPerCore)
		}
	}
	o.out = mustJSON(all)
	return o
}

func (b *replayBench) finish(first iterOut) (string, []check, map[string]any) {
	info := map[string]any{}
	for _, t := range b.traces {
		info[t.workload+"_trace_bytes"] = len(t.data)
	}
	// Each iteration already compared every replay with its direct run.
	return digestOf(first.out), nil, info
}

func (b *replayBench) close() {}
