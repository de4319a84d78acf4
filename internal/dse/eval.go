package dse

import (
	"context"
	"errors"
	"fmt"

	"hybridmem/internal/exp"
	"hybridmem/internal/sim"
)

// EvalRun is the older name of exp.Run, the name-keyed simulation an
// evaluator must execute.
type EvalRun = exp.Run

// EvalConfig is the simulation configuration shared by every run of an
// evaluation batch. InstrPerCore is the fidelity the batch runs at —
// the screening budget during a multi-fidelity search's screening
// phase, the full budget otherwise.
type EvalConfig struct {
	Scale        int
	InstrPerCore uint64
	SimSeed      uint64
}

// EvalResult is the outcome of one run: the cycle count, the combined
// NM+FM write bytes (the search's traffic objective), and the error
// string of a failed run. Cycles == 0 marks failure; Err carries its
// cause (empty means a genuine zero-cycle run). Integer measurements
// only — the search derives every float objective itself, so results
// computed remotely fold into the frontier bit-identically to local
// ones.
type EvalResult struct {
	Cycles     uint64
	WriteBytes uint64
	Err        string
}

// Measure reduces a run to the measurements the search folds: its
// cycles and its combined NM+FM write bytes. In-process and distributed
// evaluators both go through it.
func Measure(r sim.Result) EvalResult {
	return EvalResult{Cycles: uint64(r.Cycles), WriteBytes: r.Mem.NMWriteBytes + r.Mem.FMWriteBytes}
}

// Evaluator executes one batch of simulations and returns outcomes in
// input order, one per run. It must return an error only for batch-wide
// failures (cancellation, lost cluster); per-run failures ride the
// EvalResult.Err slots so one broken candidate never aborts a round.
// Evaluations must be the deterministic simulation function of
// (cfg, run) — the engine guarantees this — so any evaluator
// (in-process, loopback, distributed) yields byte-identical searches.
type Evaluator func(ctx context.Context, cfg EvalConfig, runs []exp.Run) ([]EvalResult, error)

// runBatch executes one batch of runs at the phase's fidelity —
// through Options.Eval when it is set, on the phase's runner otherwise
// — and checks that the outcomes come back one per run.
func (s *searcher) runBatch(ctx context.Context, ph *phase, runs []exp.Run) ([]EvalResult, error) {
	var out []EvalResult
	var err error
	if s.opts.Eval != nil {
		out, err = s.opts.Eval(ctx, EvalConfig{Scale: s.opts.Scale, InstrPerCore: ph.instr, SimSeed: s.opts.SimSeed}, runs)
	} else {
		out, err = localEval(ctx, ph.runner, runs)
	}
	if err != nil {
		return nil, err
	}
	if len(out) != len(runs) {
		return nil, fmt.Errorf("dse: evaluator returned %d results for %d runs", len(out), len(runs))
	}
	return out, nil
}

// localEval runs a batch in-process on the given runner.
func localEval(ctx context.Context, runner *exp.Runner, runs []exp.Run) ([]EvalResult, error) {
	res, errs := runner.ResultsByName(ctx, runs)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]EvalResult, len(runs))
	for i, r := range res {
		out[i] = Measure(r)
		if errs[i] != nil {
			out[i].Err = errs[i].Error()
		}
	}
	return out, nil
}

// batchErr joins the per-run error strings of a batch — the batch-fatal
// form used where any failed run invalidates the whole evaluation (the
// baseline).
func batchErr(out []EvalResult) error {
	var errs []error
	for _, r := range out {
		if r.Err != "" {
			errs = append(errs, errors.New(r.Err))
		}
	}
	return errors.Join(errs...)
}
