package hybridmem

import (
	"bytes"
	"compress/gzip"
	"io"
	"strings"
	"testing"
)

func quickCfg() Config {
	cfg := DefaultConfig()
	cfg.InstrPerCore = 100_000
	return cfg
}

func TestWorkloadsList(t *testing.T) {
	ws := Workloads()
	if len(ws) != 30 {
		t.Fatalf("got %d workloads, want 30", len(ws))
	}
	if ws[0] != "cg.D" || ws[29] != "namd" {
		t.Fatalf("unexpected ordering: first=%s last=%s", ws[0], ws[29])
	}
}

func TestDesignsList(t *testing.T) {
	ds := Designs()
	if len(ds) != 7 || ds[0] != "Baseline" || ds[6] != "HYBRID2" {
		t.Fatalf("designs = %v", ds)
	}
}

func TestRunBasic(t *testing.T) {
	res, err := Run("HYBRID2", "lbm", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.Requests == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if res.ServedNMFrac <= 0 || res.ServedNMFrac > 1 {
		t.Fatalf("served fraction %f out of range", res.ServedNMFrac)
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run("HYBRID2", "gcc", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("HYBRID2", "gcc", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same config, different results:\n%+v\n%+v", a, b)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run("HYBRID2", "nosuch", quickCfg()); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := Run("NOSUCHDESIGN", "lbm", quickCfg()); err == nil {
		t.Fatal("unknown design accepted")
	}
	bad := quickCfg()
	bad.Scale = 0
	if _, err := Run("HYBRID2", "lbm", bad); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"zero scale", func(c *Config) { c.Scale = 0 }, "Scale"},
		{"negative scale", func(c *Config) { c.Scale = -3 }, "Scale"},
		{"ratio 0", func(c *Config) { c.NMRatio16 = 0 }, "NMRatio16"},
		{"ratio 3", func(c *Config) { c.NMRatio16 = 3 }, "NMRatio16"},
		{"ratio 8", func(c *Config) { c.NMRatio16 = 8 }, "NMRatio16"},
		{"zero instr", func(c *Config) { c.InstrPerCore = 0 }, "InstrPerCore"},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name the bad field %s", tc.name, err, tc.want)
		}
		// Every entry point rejects the same configurations up front.
		if _, rerr := Run("HYBRID2", "lbm", cfg); rerr == nil {
			t.Errorf("%s: Run accepted", tc.name)
		}
		if _, rerr := RunAll(cfg, SweepOptions{Designs: []string{"Baseline"}, Workloads: []string{"lbm"}}); rerr == nil {
			t.Errorf("%s: RunAll accepted", tc.name)
		}
		if _, rerr := ReplayTrace("HYBRID2", "t", strings.NewReader("0 1 40 R\n"), ReplayOptions{MLP: 2}, cfg); rerr == nil {
			t.Errorf("%s: ReplayTrace accepted", tc.name)
		}
	}
	// NMRatio16 2 and 4 are paper configurations and must stay valid.
	for _, ratio := range []int{2, 4} {
		cfg := DefaultConfig()
		cfg.NMRatio16 = ratio
		if err := cfg.Validate(); err != nil {
			t.Errorf("ratio %d rejected: %v", ratio, err)
		}
	}
}

func TestRunAllSweep(t *testing.T) {
	cfg := quickCfg()
	opts := SweepOptions{Workloads: []string{"lbm", "namd"}, Designs: []string{"Baseline", "HYBRID2"}}
	res, err := RunAll(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("got %d results, want 4", len(res))
	}
	// Design-major, workload-minor ordering.
	order := []struct{ d, w string }{
		{"Baseline", "lbm"}, {"Baseline", "namd"}, {"HYBRID2", "lbm"}, {"HYBRID2", "namd"},
	}
	for i, want := range order {
		if res[i].Design != want.d || res[i].Workload != want.w {
			t.Fatalf("slot %d = %s/%s, want %s/%s", i, res[i].Design, res[i].Workload, want.d, want.w)
		}
		if res[i].Cycles == 0 {
			t.Fatalf("slot %d empty: %+v", i, res[i])
		}
	}
	// The sweep must agree with individual Run calls at any parallelism.
	single, err := Run("HYBRID2", "lbm", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res[2] != single {
		t.Fatalf("RunAll result differs from Run:\n%+v\n%+v", res[2], single)
	}
}

func TestRunAllErrors(t *testing.T) {
	if _, err := RunAll(quickCfg(), SweepOptions{Workloads: []string{"nosuch"}}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := RunAll(quickCfg(), SweepOptions{Designs: []string{"NOSUCH"}, Workloads: []string{"lbm"}}); err == nil {
		t.Fatal("unknown design accepted")
	}
	if _, err := RunAll(Config{}, SweepOptions{}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestSpeedupAboveBaselineForHighMPKI(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InstrPerCore = 300_000
	s, err := Speedup("HYBRID2", "lbm", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s <= 1.0 {
		t.Fatalf("HYBRID2 speedup on lbm = %.2f, expected > 1", s)
	}
}

func TestParameterizedDesignNames(t *testing.T) {
	for _, d := range []string{"IDEAL-256", "DFC-512", "H2-CacheOnly", "H2DSE-64-2-256"} {
		if _, err := Run(d, "xz", quickCfg()); err != nil {
			t.Fatalf("design %s rejected: %v", d, err)
		}
	}
}

func TestBaselineServesNothingFromNM(t *testing.T) {
	res, err := Run("Baseline", "mcf", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.ServedNMFrac != 0 || res.NMTrafficBytes != 0 {
		t.Fatalf("baseline touched NM: %+v", res)
	}
}

func TestReplayTracePublicAPI(t *testing.T) {
	trace := strings.NewReader("0 10 1000 R\n0 5 1040 W\n1 20 2000 R\n")
	res, err := ReplayTrace("HYBRID2", "unit", trace, ReplayOptions{MLP: 2}, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 || res.Cycles == 0 {
		t.Fatalf("empty trace result: %+v", res)
	}
	if res.Workload != "unit" || res.Design != "HYBRID2" {
		t.Fatalf("labels wrong: %+v", res)
	}
}

func TestReplayTraceGzip(t *testing.T) {
	// The same trace, plain and gzip-compressed, must produce identical
	// results — the encoding is transport, not semantics.
	const text = "0 10 1000 R\n1 5 2000 W\n0 7 1040 R\n"
	plain, err := ReplayTrace("HYBRID2", "t", strings.NewReader(text), ReplayOptions{MLP: 2}, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	io.WriteString(gz, text)
	gz.Close()
	zipped, err := ReplayTrace("HYBRID2", "t", &buf, ReplayOptions{MLP: 2}, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if plain != zipped {
		t.Fatalf("gzip replay differs:\n%+v\nvs\n%+v", plain, zipped)
	}
}

func TestReplayTraceWindowError(t *testing.T) {
	// A trace whose interleaving is more skewed than the lookahead
	// window must fail with a diagnostic, not buffer unboundedly.
	var sb strings.Builder
	for i := 0; i < 100; i++ {
		sb.WriteString("7 1 1000 R\n")
	}
	_, err := ReplayTrace("Baseline", "skew", strings.NewReader(sb.String()), ReplayOptions{MLP: 2, Window: 4}, quickCfg())
	if err == nil || !strings.Contains(err.Error(), "window") {
		t.Fatalf("want window skew error, got %v", err)
	}
}

func TestReplayTraceErrors(t *testing.T) {
	if _, err := ReplayTrace("HYBRID2", "x", strings.NewReader("bogus line"), ReplayOptions{MLP: 2}, quickCfg()); err == nil {
		t.Fatal("malformed trace accepted")
	}
	if _, err := ReplayTrace("NOSUCH", "x", strings.NewReader("0 1 40 R\n"), ReplayOptions{MLP: 2}, quickCfg()); err == nil {
		t.Fatal("unknown design accepted")
	}
}

// TestReplayTraceRejectsBadMLP: ReplayTrace refuses an mlp above 64
// before allocating per-core state for it, and reads one below 1 as its
// default of 4.
func TestReplayTraceRejectsBadMLP(t *testing.T) {
	const text = "0 1 40 R\n1 2 80 W\n"
	for _, mlp := range []int{65, 1 << 20, 1 << 30} {
		if _, err := ReplayTrace("HYBRID2", "x", strings.NewReader(text), ReplayOptions{MLP: mlp}, quickCfg()); err == nil {
			t.Errorf("ReplayTrace accepted mlp %d", mlp)
		}
	}
	want, err := ReplayTrace("HYBRID2", "x", strings.NewReader(text), ReplayOptions{MLP: 4}, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, mlp := range []int{0, -1} {
		got, err := ReplayTrace("HYBRID2", "x", strings.NewReader(text), ReplayOptions{MLP: mlp}, quickCfg())
		if err != nil || got != want {
			t.Errorf("mlp %d: %v, %+v; want the mlp 4 result %+v", mlp, err, got, want)
		}
	}
}

func TestRunCustomWorkload(t *testing.T) {
	wl := Workload{
		Name: "custom", MultiThreaded: true, FootprintGB: 1.5,
		APKI: 20, HotFrac: 0.1, HotProb: 0.7, SeqRun: 8, WriteFrac: 0.3, Phases: 2,
	}
	res, err := RunCustom("HYBRID2", wl, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "custom" || res.Cycles == 0 {
		t.Fatalf("bad result %+v", res)
	}
}

func TestRunCustomValidation(t *testing.T) {
	bad := Workload{Name: "x", APKI: 0, FootprintGB: 1}
	if _, err := RunCustom("HYBRID2", bad, quickCfg()); err == nil {
		t.Fatal("zero-APKI workload accepted")
	}
	bad = Workload{Name: "x", APKI: 10, FootprintGB: 0}
	if _, err := RunCustom("HYBRID2", bad, quickCfg()); err == nil {
		t.Fatal("zero-footprint workload accepted")
	}
}

func TestNMRatioImprovesHybrid2(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InstrPerCore = 250_000
	s1, err := Speedup("HYBRID2", "sp.D", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.NMRatio16 = 4
	s4, err := Speedup("HYBRID2", "sp.D", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s4 <= s1 {
		t.Fatalf("4x NM (%.2f) not better than 1x (%.2f) on a big-footprint workload", s4, s1)
	}
}
