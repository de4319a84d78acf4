// Command dse explores the registered memory-organization design space
// for Pareto-optimal configurations — the paper's H2DSE search (Fig. 11)
// generalized over every family in the registry.
//
// Usage:
//
//	dse                                   # budgeted search over all families
//	dse -families H2DSE -budget 48        # the paper's Fig. 11 space
//	dse -workloads lbm,omnetpp -budget 0  # exhaustive on two workloads
//	dse -checkpoint s.json                # resumable: state saved per batch
//	dse -checkpoint s.json -resume        # continue an interrupted search
//	dse -screen 20000 -budget 16          # multi-fidelity: screen cheap, promote survivors
//	dse -runners 4                        # evaluate through the distributed plane (loopback)
//	dse -json                             # machine-readable result
//
// The search is deterministic for a given flag set and -seed: interrupt
// it at any batch boundary (Ctrl-C flushes a final checkpoint) and
// resume it, and the frontier — and the -json bytes — are identical to
// an uninterrupted run. Progress streams to stderr; the final Markdown
// frontier table (or JSON with -json) goes to stdout.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"hybridmem"
)

func main() {
	os.Exit(run())
}

func run() int {
	families := flag.String("families", "", "comma-separated design families to explore (default: every registered family except the baseline)")
	workloads := flag.String("workloads", "lbm,omnetpp,mcf", "comma-separated evaluation workloads (empty: all 30)")
	budget := flag.Int("budget", 32, "max candidate evaluations, stopping at a batch boundary (0: exhaustive)")
	batch := flag.Int("batch", 8, "candidates evaluated and checkpointed per batch")
	seed := flag.Uint64("seed", 1, "search seed (random sampling)")
	simSeed := flag.Uint64("simseed", 1, "simulation seed")
	scale := flag.Int("scale", 16, "capacity scale divisor")
	instr := flag.Uint64("instr", 200_000, "instructions per core per run")
	ratio := flag.Int("ratio", 1, "NM:FM capacity ratio in sixteenths (1, 2 or 4 in the paper)")
	parallel := flag.Int("parallel", runtime.NumCPU(), "simulation runs evaluated concurrently")
	runners := flag.Int("runners", 0, "evaluate through the distributed execution plane with N in-process runners (0: direct local evaluation; results are identical either way)")
	maxvals := flag.Int("maxvals", 12, "max enumerated values per integer parameter")
	maxBatches := flag.Int("maxbatches", 0, "pause after this many batches (0: run to completion); combine with -checkpoint to time-slice a search")
	storeDir := flag.String("store", "", "persistent result-store directory: previously simulated candidate runs are reused across searches (empty: no reuse; never changes results)")
	checkpoint := flag.String("checkpoint", "", "JSON state file, rewritten atomically after every batch")
	resume := flag.Bool("resume", false, "resume from -checkpoint instead of starting fresh")
	jsonOut := flag.Bool("json", false, "emit the result as JSON instead of a Markdown table")
	screen := flag.Uint64("screen", 0, "multi-fidelity screening: instructions per core for the screening phase (0: single fidelity)")
	screenBudget := flag.Int("screenbudget", 0, "max screening evaluations (0: 4x -budget); only with -screen")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the search to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile taken at search end to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dse:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "dse:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dse:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "dse:", err)
			}
		}()
	}

	opts := hybridmem.ExploreOptions{
		Families:           splitList(*families),
		Workloads:          splitList(*workloads),
		Budget:             *budget,
		BatchSize:          *batch,
		Seed:               *seed,
		Config:             hybridmem.Config{Scale: *scale, NMRatio16: *ratio, InstrPerCore: *instr, Seed: *simSeed},
		ScreenInstrPerCore: *screen,
		ScreenBudget:       *screenBudget,
		Parallelism:        *parallel,
		LoopbackRunners:    *runners,
		StoreDir:           *storeDir,
		MaxPerParam:        *maxvals,
		MaxBatches:         *maxBatches,
		Checkpoint:         *checkpoint,
		Resume:             *resume,
		Progress: func(p hybridmem.ExploreProgress) {
			if p.Done {
				return
			}
			target := p.Budget
			if target <= 0 || target > p.SpaceSize {
				target = p.SpaceSize
			}
			if p.Screened > 0 {
				fmt.Fprintf(os.Stderr, "dse: batch %d: %d screened, %d/%d candidates evaluated, frontier %d\n",
					p.Batch, p.Screened, p.Evaluated, target, p.FrontierSize)
				return
			}
			fmt.Fprintf(os.Stderr, "dse: batch %d: %d/%d candidates evaluated, frontier %d\n",
				p.Batch, p.Evaluated, target, p.FrontierSize)
		},
	}

	// A first interrupt cancels the search, which flushes a final
	// checkpoint before returning; unregistering the handler as soon as
	// the context is done restores default signal handling, so a second
	// interrupt kills the process instead of being swallowed while the
	// in-flight batch drains.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()

	res, err := hybridmem.Explore(ctx, opts)
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
		fmt.Fprintf(os.Stderr, "dse: interrupted after %d batch(es), %d candidate(s) evaluated\n", res.Batches, len(res.Evaluated))
		if *checkpoint != "" {
			if _, statErr := os.Stat(*checkpoint); statErr == nil {
				fmt.Fprintf(os.Stderr, "dse: checkpoint flushed to %s; rerun with -resume to continue\n", *checkpoint)
			}
		}
		return 130
	default:
		fmt.Fprintln(os.Stderr, "dse:", err)
		return 1
	}

	if !res.Complete {
		if *checkpoint != "" {
			fmt.Fprintf(os.Stderr, "dse: paused after %d batch(es); rerun with -resume to continue\n", res.Batches)
		} else {
			fmt.Fprintf(os.Stderr, "dse: paused after %d batch(es); no -checkpoint given, so the search cannot be resumed\n", res.Batches)
		}
	}
	if *jsonOut {
		// The canonical versioned wire document — the same mapping and
		// bytes the hybridmemd server emits for this search.
		data, err := res.WireJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "dse:", err)
			return 1
		}
		os.Stdout.Write(data)
		return 0
	}
	printFrontier(res)
	return 0
}

// splitList parses a comma-separated flag; empty means nil (defaults).
func splitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// printFrontier renders the search outcome as a Markdown table.
func printFrontier(res hybridmem.ExploreResult) {
	infeasible := 0
	for _, p := range res.Evaluated {
		if p.Infeasible {
			infeasible++
		}
	}
	if len(res.Screened) > 0 {
		fmt.Printf("Screened %d of %d candidates at reduced fidelity; promoted %d to full fidelity.\n",
			len(res.Screened), res.SpaceSize, len(res.Evaluated))
	}
	fmt.Printf("Evaluated %d of %d candidates (%d infeasible) in %d batch(es); %d on the Pareto frontier.\n\n",
		len(res.Evaluated), res.SpaceSize, infeasible, res.Batches, len(res.Frontier))
	fmt.Println("| Design | Speedup | Capacity (MB) | Write traffic (GB) |")
	fmt.Println("| --- | --- | --- | --- |")
	for _, p := range res.Frontier {
		fmt.Printf("| `%s` | %.3f | %.0f | %.3f |\n", p.Design, p.Speedup, p.CapacityMB, p.TrafficGB)
	}
}
