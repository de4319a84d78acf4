// Command hybrid2sim runs one workload on one memory-system design and
// prints the measurements: the single-run entry point to the simulator.
//
// Usage:
//
//	hybrid2sim -design HYBRID2 -workload lbm
//	hybrid2sim -design TAGLESS -workload omnetpp -ratio 4 -instr 2000000
//	hybrid2sim -design HYBRID2 -trace mcf.trace -mlp 2
//	hybrid2sim -design HYBRID2 -trace mcf.htb.gz    # binary/gzip auto-detected
//	hybrid2sim -design HYBRID2 -workload lbm -series-json lbm.json -series-csv lbm.csv
//	                                                # epoch telemetry exports
//	hybrid2sim -list
//	hybrid2sim -designs     # full design grammar with parameter ranges
//
// -series-json and -series-csv sample the run into instruction-windowed
// epochs (IPC, MPKI, traffic, migration and latency deltas, plus a
// phase segmentation) and export the series — JSON in the shared wire
// schema of internal/api, CSV with one epoch per row. "-" writes to
// stdout. Telemetry is passive: the printed measurements are identical
// with and without it.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"hybridmem"
	"hybridmem/internal/api"
	"hybridmem/internal/exp"
	"hybridmem/internal/sim"
	"hybridmem/internal/telemetry"
	"hybridmem/internal/workload"
)

// main delegates to run so error paths return through the defers (an
// os.Exit in the middle of main would skip them, leaking the trace file
// descriptor and whatever else is pending).
func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hybrid2sim:", err)
		os.Exit(1)
	}
}

func run() error {
	design := flag.String("design", "HYBRID2", "memory-system design (see -list)")
	wl := flag.String("workload", "lbm", "workload name from Table 2 (see -list)")
	ratio := flag.Int("ratio", 1, "NM size in sixteenths of FM (1, 2 or 4 in the paper)")
	scale := flag.Int("scale", 16, "capacity scale divisor (1 = paper-size system)")
	instr := flag.Uint64("instr", 1_000_000, "instructions per core")
	seed := flag.Uint64("seed", 1, "simulation seed")
	traceFile := flag.String("trace", "", "replay a captured trace file instead of a synthetic workload")
	mlp := flag.Int("mlp", 4, "per-core memory-level parallelism for trace replay (1-64)")
	window := flag.Int("window", 0, "per-core lookahead window for streaming trace replay, in records (0 = default, at most 1048576)")
	list := flag.Bool("list", false, "list designs and workloads, then exit")
	designs := flag.Bool("designs", false, "list every registered design with its grammar and parameter ranges, then exit")
	seriesJSON := flag.String("series-json", "", "sample epoch telemetry and write the run-series JSON document to this file (\"-\" = stdout)")
	seriesCSV := flag.String("series-csv", "", "sample epoch telemetry and write the epoch series as CSV to this file (\"-\" = stdout)")
	seriesWindow := flag.Uint64("series-window", 0, "epoch window for the series exports in retired instructions (0 = default)")
	flag.Parse()

	if *designs {
		printDesigns()
		return nil
	}
	if *list {
		var grammars []string
		for _, d := range hybridmem.AllDesigns() {
			grammars = append(grammars, d.Grammar)
		}
		fmt.Println("Designs:", strings.Join(grammars, " "))
		fmt.Println("  (-designs explains every parameter and its range)")
		fmt.Println("Workloads:", hybridmem.Workloads())
		return nil
	}
	cfg := hybridmem.Config{Scale: *scale, NMRatio16: *ratio, InstrPerCore: *instr, Seed: *seed}
	if err := cfg.Validate(); err != nil {
		return err
	}

	// Telemetry is passive: the printed measurements are identical with
	// or without the series exports.
	r := &exp.Runner{Scale: *scale, InstrPerCore: *instr, Seed: *seed, TraceWindow: *window}
	var ser *telemetry.Series
	if *seriesJSON != "" || *seriesCSV != "" {
		r.Telemetry = &exp.TelemetryOptions{
			WindowInstr: *seriesWindow,
			OnSeries:    func(_ int, s *telemetry.Series) { ser = s },
		}
	}

	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		res, err := r.RunTrace(*traceFile, f, *design, *ratio, *mlp)
		if err != nil {
			return err
		}
		if err := writeSeries(*seriesJSON, *seriesCSV, res, ser); err != nil {
			return err
		}
		fmt.Printf("trace           %s\n", res.Workload)
		fmt.Printf("design          %s\n", res.Design)
		fmt.Printf("cycles          %d\n", res.Cycles)
		fmt.Printf("IPC             %.3f\n", res.IPC)
		fmt.Printf("LLC MPKI        %.2f\n", res.MPKI)
		fmt.Printf("served from NM  %.1f%%\n", res.ServedNMFrac()*100)
		fmt.Printf("NM traffic      %.1f MB\n", float64(res.Mem.NMTraffic())/(1<<20))
		fmt.Printf("FM traffic      %.1f MB\n", float64(res.Mem.FMTraffic())/(1<<20))
		return nil
	}

	spec, ok := workload.ByName(*wl)
	if !ok {
		return fmt.Errorf("unknown workload %q", *wl)
	}
	sr, err := r.ResultErr(spec, *design, *ratio)
	if err != nil {
		return err
	}
	if err := writeSeries(*seriesJSON, *seriesCSV, sr, ser); err != nil {
		return err
	}
	if sr.Cycles == 0 {
		return errors.New("zero-cycle run")
	}
	// The speedup's baseline runs on the same runner, unsampled, so it
	// neither costs a second design run nor replaces the design's series.
	r.Telemetry = nil
	base, err := r.ResultErr(spec, "Baseline", *ratio)
	if err != nil {
		return err
	}
	res := api.FromSim(sr)
	speedup := float64(base.Cycles) / float64(sr.Cycles)

	fmt.Printf("workload        %s\n", res.Workload)
	fmt.Printf("design          %s\n", res.Design)
	fmt.Printf("cycles          %d\n", res.Cycles)
	fmt.Printf("instructions    %d\n", res.Instructions)
	fmt.Printf("IPC             %.3f\n", res.IPC)
	fmt.Printf("LLC MPKI        %.2f\n", res.MPKI)
	fmt.Printf("speedup         %.3f (vs no-NM baseline)\n", speedup)
	fmt.Printf("served from NM  %.1f%%\n", res.ServedNMFrac*100)
	fmt.Printf("NM traffic      %.1f MB (%.1f MB metadata)\n",
		float64(res.NMTrafficBytes)/(1<<20), float64(res.MetaNMBytes)/(1<<20))
	fmt.Printf("FM traffic      %.1f MB\n", float64(res.FMTrafficBytes)/(1<<20))
	fmt.Printf("migrations      %d\n", res.Migrations)
	fmt.Printf("dynamic energy  %.2f mJ\n", res.EnergyNanoJ/1e6)
	return nil
}

// writeSeries renders the sampled run's telemetry exports: the wire-schema
// JSON document to jsonPath and the epoch CSV to csvPath, skipping either
// when its path is empty and writing to stdout when it is "-".
func writeSeries(jsonPath, csvPath string, sr sim.Result, ser *telemetry.Series) error {
	if jsonPath != "" {
		data, err := api.Encode(api.NewRunSeries(sr, ser))
		if err != nil {
			return err
		}
		if err := writeOut(jsonPath, data); err != nil {
			return err
		}
	}
	if csvPath != "" {
		if err := writeOut(csvPath, api.SeriesCSV(api.FromSeries(ser))); err != nil {
			return err
		}
	}
	return nil
}

func writeOut(path string, data []byte) error {
	if path == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printDesigns renders the registry listing: one block per design family
// with its grammar, kind, doc and per-parameter ranges.
func printDesigns() {
	for _, d := range hybridmem.AllDesigns() {
		fmt.Printf("%-44s %s (%s)\n", d.Grammar, d.Doc, d.Kind)
		for _, p := range d.Params {
			constraint := fmt.Sprintf("%d..%d", p.Min, p.Max)
			if p.Enum != nil {
				constraint = strings.Join(p.Enum, "|")
			}
			if p.Pow2 {
				constraint += ", power of two"
			}
			if p.Optional {
				constraint += fmt.Sprintf(", default %d", p.Default)
			}
			fmt.Printf("    <%s>  %s (%s)\n", p.Name, p.Doc, constraint)
		}
		if len(d.Params) > 0 {
			fmt.Printf("    e.g. %s\n", d.Example)
		}
	}
}
