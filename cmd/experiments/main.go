// Command experiments regenerates every table and figure of the paper's
// evaluation (Figures 1-2, Tables 1-2, Figures 11-18) as text series.
//
// Usage:
//
//	experiments                  # everything (minutes of CPU time)
//	experiments -run fig12,fig13 # selected artifacts
//	experiments -quick           # subsampled workloads, shorter streams
//	                             # (an explicit -instr still sets their length)
//	experiments -parallel 1      # force serial execution
//	experiments -designs         # the design registry as a Markdown table
//	experiments -cpuprofile cpu.pprof -memprofile mem.pprof -run fig12
//	                             # profile a sweep (inspect with go tool pprof)
//
//	experiments -runjson HYBRID2@lbm          # one run, shared JSON schema
//	experiments -sweepjson Baseline,HYBRID2@lbm,mcf
//	experiments -runjson HYBRID2@lbm -series -seriescsv epochs.csv
//	                             # sampled run: run-series JSON, epoch CSV
//
// Independent simulation runs fan out across -parallel workers (all CPUs
// by default); results are deterministic and identical to a serial run.
// Results are printed to stdout; EXPERIMENTS.md records a full run.
//
// -runjson and -sweepjson emit the versioned wire encoding of
// internal/api — byte-identical to what the hybridmemd server returns
// for the equivalent request, which CI diffs to prove the server path
// changes nothing.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"hybridmem"
	"hybridmem/internal/api"
	"hybridmem/internal/exp"
	"hybridmem/internal/store"
	"hybridmem/internal/telemetry"
)

func main() {
	os.Exit(run())
}

func run() int {
	runSel := flag.String("run", "all",
		"comma-separated subset of: tab1,tab2,fig1,fig2,fig11,fig12,fig13,fig14,fig15,fig16,fig17,fig18,ablation,seeds,extras,paths,prefetch,detail")
	quick := flag.Bool("quick", false, "subsample workloads and shorten streams to 250k instructions per core, unless -instr is set")
	scale := flag.Int("scale", 16, "capacity scale divisor")
	instr := flag.Uint64("instr", 1_000_000, "instructions per core")
	seed := flag.Uint64("seed", 1, "simulation seed")
	parallel := flag.Int("parallel", runtime.NumCPU(), "simulation runs evaluated concurrently")
	csvDir := flag.String("csv", "", "also write each artifact as CSV into this directory")
	jsonDir := flag.String("json", "", "also write each artifact as JSON into this directory")
	designs := flag.Bool("designs", false, "print the design registry as a Markdown table (the README's Designs section), then exit")
	ratio := flag.Int("ratio", 1, "NM:FM capacity ratio in sixteenths for -runjson/-sweepjson (1, 2 or 4)")
	runJSON := flag.String("runjson", "", "run one DESIGN@WORKLOAD and print the shared JSON result encoding, then exit")
	sweepJSON := flag.String("sweepjson", "", "run a D1,D2,...@W1,W2,... sweep and print the shared JSON result encoding, then exit")
	series := flag.Bool("series", false, "with -runjson: sample epoch telemetry and print the run-series document instead of the plain run document")
	seriesWindow := flag.Uint64("serieswindow", 0, "epoch window for -series in retired instructions (0 = default)")
	seriesCSV := flag.String("seriescsv", "", "with -series: also write the epoch series as CSV to this file")
	storeDir := flag.String("store", "", "persistent result-store directory: previously simulated runs are reused across invocations (empty: no reuse)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile taken at exit to this file")
	flag.Parse()

	var st *store.Store
	if *storeDir != "" {
		var err error
		if st, err = store.Open(store.Options{Dir: *storeDir}); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
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
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}()
	}

	if *designs {
		printDesignTable()
		return 0
	}
	if *runJSON != "" || *sweepJSON != "" {
		opts := seriesFlags{Enabled: *series, WindowInstr: *seriesWindow, CSVPath: *seriesCSV}
		if err := emitJSON(*runJSON, *sweepJSON, *scale, *ratio, *instr, *seed, *parallel, st, opts); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		return 0
	}
	if *series || *seriesCSV != "" {
		fmt.Fprintln(os.Stderr, "experiments: -series and -seriescsv require -runjson")
		return 2
	}

	r := exp.NewRunner()
	r.InstrPerCore = *instr
	if *quick {
		// -quick shortens the streams unless -instr is set explicitly.
		r = exp.NewQuickRunner()
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "instr" {
				r.InstrPerCore = *instr
			}
		})
	}
	r.Scale = *scale
	r.Seed = *seed
	r.Parallelism = *parallel
	r.Store = st
	if err := (hybridmem.Config{Scale: r.Scale, NMRatio16: 1, InstrPerCore: r.InstrPerCore}).Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 2
	}

	want := map[string]bool{}
	for _, s := range strings.Split(*runSel, ",") {
		want[strings.TrimSpace(s)] = true
	}
	all := want["all"]
	sel := func(name string) bool { return all || want[name] }
	ran := 0

	start := time.Now()
	show := func(t exp.Table) {
		fmt.Println(t.String())
		ran++
		if *csvDir != "" {
			path := *csvDir + "/" + t.Slug() + ".csv"
			if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
		}
		if *jsonDir != "" {
			data, err := t.JSON()
			if err == nil {
				err = os.WriteFile(*jsonDir+"/"+t.Slug()+".json", data, 0o644)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
		}
	}

	if sel("tab1") {
		show(exp.Tab1(r.Scale))
	}
	if sel("tab2") {
		show(exp.Tab2(r))
	}
	if sel("fig1") {
		t, _ := exp.Fig1(r)
		show(t)
	}
	if sel("fig2") {
		t, _ := exp.Fig2(r)
		show(t)
	}
	if sel("fig11") {
		t, _ := exp.Fig11(r)
		show(t)
	}
	if sel("fig12") {
		for _, ratio := range []int{1, 2, 4} {
			t, _ := exp.Fig12(r, ratio)
			show(t)
		}
	}
	if sel("fig13") {
		t, _ := exp.Fig13(r)
		show(t)
	}
	if sel("fig14") {
		t, _ := exp.Fig14(r)
		show(t)
	}
	if sel("fig15") {
		t, _ := exp.Fig15(r)
		show(t)
	}
	if sel("fig16") {
		t, _ := exp.Fig16(r)
		show(t)
	}
	if sel("fig17") {
		t, _ := exp.Fig17(r)
		show(t)
	}
	if sel("fig18") {
		t, _ := exp.Fig18(r)
		show(t)
	}
	if sel("ablation") {
		t, _ := exp.Ablations(r)
		show(t)
	}
	if sel("seeds") {
		t, _ := exp.SeedSensitivity(r, []uint64{1, 2, 3})
		show(t)
	}
	if sel("extras") {
		t, _ := exp.ExtrasTable(r)
		show(t)
	}
	if sel("paths") {
		t, _ := exp.PathBreakdown(r)
		show(t)
	}
	if sel("prefetch") {
		t, _ := exp.PrefetchStudy(r)
		show(t)
	}
	if want["detail"] { // per-benchmark Figs 15-18 companion (not in "all")
		for _, t := range exp.Detail(r) {
			show(t)
		}
	}

	if ran == 0 {
		fmt.Fprintf(os.Stderr, "experiments: nothing selected by -run %q\n", *runSel)
		return 2
	}
	fmt.Printf("-- %d artifact(s) in %v --\n", ran, time.Since(start).Round(time.Millisecond))
	return 0
}

// seriesFlags carries the telemetry export selection of -runjson.
type seriesFlags struct {
	Enabled     bool
	WindowInstr uint64
	CSVPath     string
}

// emitJSON runs the -runjson or -sweepjson selection through the same
// engine path the server uses and prints the shared wire document —
// the byte-identical CLI counterpart CI diffs server responses against.
// With -series the single run is sampled and the run-series document
// (the server's ?series=1 response) is printed instead; the embedded
// result stays byte-identical to the plain document's.
func emitJSON(runSel, sweepSel string, scale, ratio int, instr, seed uint64, parallel int, st *store.Store, series seriesFlags) error {
	sel := runSel
	if sel == "" {
		sel = sweepSel
	}
	if (series.Enabled || series.CSVPath != "") && runSel == "" {
		return fmt.Errorf("-series and -seriescsv require -runjson (sweep series are served by hybridmemd)")
	}
	if series.CSVPath != "" && !series.Enabled {
		return fmt.Errorf("-seriescsv requires -series")
	}
	designs, workloads, err := parseRuns(sel)
	if err != nil {
		return err
	}
	if runSel != "" && (len(designs) != 1 || len(workloads) != 1) {
		return fmt.Errorf("-runjson takes exactly one DESIGN@WORKLOAD, got %q", runSel)
	}
	for _, d := range designs {
		if err := hybridmem.ValidateDesign(d); err != nil {
			return err
		}
	}
	cfg := hybridmem.Config{Scale: scale, NMRatio16: ratio, InstrPerCore: instr, Seed: seed}
	if err := cfg.Validate(); err != nil {
		return err
	}
	r := &exp.Runner{Scale: scale, InstrPerCore: instr, Seed: seed, Parallelism: parallel, Store: st}
	specs, err := exp.SweepSpecsByName(designs, workloads, ratio)
	if err != nil {
		return err
	}
	var ser *telemetry.Series
	if series.Enabled {
		r.Telemetry = &exp.TelemetryOptions{
			WindowInstr: series.WindowInstr,
			OnSeries:    func(_ int, s *telemetry.Series) { ser = s },
		}
	}
	results, err := r.ResultsParallel(specs)
	if err != nil {
		return err
	}
	var doc any = api.NewSweep(results)
	switch {
	case series.Enabled:
		if series.CSVPath != "" {
			if err := os.WriteFile(series.CSVPath, api.SeriesCSV(api.FromSeries(ser)), 0o644); err != nil {
				return err
			}
		}
		doc = api.NewRunSeries(results[0], ser)
	case runSel != "":
		doc = api.NewRun(results[0])
	}
	data, err := api.Encode(doc)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(data)
	return err
}

// parseRuns splits "D1,D2@W1,W2" into design and workload lists.
func parseRuns(sel string) (designs, workloads []string, err error) {
	parts := strings.Split(sel, "@")
	if len(parts) != 2 {
		return nil, nil, fmt.Errorf("selection %q is not DESIGNS@WORKLOADS", sel)
	}
	split := func(s string) []string {
		var out []string
		for _, f := range strings.Split(s, ",") {
			if f = strings.TrimSpace(f); f != "" {
				out = append(out, f)
			}
		}
		return out
	}
	designs, workloads = split(parts[0]), split(parts[1])
	if len(designs) == 0 || len(workloads) == 0 {
		return nil, nil, fmt.Errorf("selection %q needs at least one design and one workload", sel)
	}
	return designs, workloads, nil
}

// printDesignTable renders the registry as the Markdown table the README
// embeds, so the docs and the engine share one source of truth.
func printDesignTable() {
	fmt.Println("| Design | Kind | Description |")
	fmt.Println("| --- | --- | --- |")
	for _, d := range hybridmem.AllDesigns() {
		doc := d.Doc
		if len(d.Params) > 0 {
			doc += fmt.Sprintf(" (e.g. `%s`)", d.Example)
		}
		fmt.Printf("| `%s` | %s | %s |\n", d.Grammar, d.Kind, doc)
	}
}
