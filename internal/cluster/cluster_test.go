package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridmem/internal/api"
	"hybridmem/internal/dse"
	"hybridmem/internal/exp"
	"hybridmem/internal/sim"
	"hybridmem/internal/workload"
)

// testConfig is the shared fast simulation configuration: short streams
// keep every test in the sub-second range while still exercising the
// real engines.
func testConfig() Config {
	return Config{Scale: 16, InstrPerCore: 20_000, Seed: 1}
}

// testRuns enumerates a small design-major sweep — the same order
// SweepSpecsByName produces, so wire documents line up with local ones.
func testRuns() []Run {
	designs := []string{"Baseline", "MPOD", "CHA", "DFC-256", "TAGLESS"}
	workloads := []string{"mcf", "lbm", "omnetpp"}
	var runs []Run
	for _, d := range designs {
		for _, w := range workloads {
			runs = append(runs, Run{Design: d, Workload: w, Ratio16: 1})
		}
	}
	return runs
}

// localSweepBytes computes the reference wire document the way a
// single-process sweep does: straight through exp.Runner and the shared
// api mapping, no cluster machinery involved.
func localSweepBytes(t *testing.T, cfg Config, runs []Run) []byte {
	t.Helper()
	r := &exp.Runner{Scale: cfg.Scale, InstrPerCore: cfg.InstrPerCore, Seed: cfg.Seed, Parallelism: 2}
	specs := make([]exp.RunSpec, len(runs))
	for i, run := range runs {
		wl, ok := workload.ByName(run.Workload)
		if !ok {
			t.Fatalf("unknown workload %q", run.Workload)
		}
		specs[i] = exp.RunSpec{Workload: wl, Design: run.Design, Ratio16: run.Ratio16}
	}
	results, err := r.ResultsParallel(specs)
	if err != nil {
		t.Fatal(err)
	}
	data, err := api.Encode(api.NewSweep(results))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// outcomeSweepBytes assembles the distributed wire document from shard
// outcomes, as the serve layer does.
func outcomeSweepBytes(t *testing.T, outs []RunOutcome) []byte {
	t.Helper()
	results := make([]sim.Result, len(outs))
	for i, o := range outs {
		if o.Err != "" {
			t.Fatalf("run %d failed: %s", i, o.Err)
		}
		results[i] = o.Result
	}
	data, err := api.Encode(api.NewSweep(results))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestLoopbackSweepByteIdentity is the core determinism guarantee: a
// sweep sharded across four loopback runners merges to the exact bytes
// of a single-process run, and progress reporting stays monotonic.
func TestLoopbackSweepByteIdentity(t *testing.T) {
	cfg, runs := testConfig(), testRuns()
	want := localSweepBytes(t, cfg, runs)

	c := NewCoordinator(CoordinatorOptions{ShardSize: 2, MaxInFlight: 1})
	c.AttachLoopback(4, 1)
	var mu sync.Mutex
	var dones []int
	outs, err := c.Run(context.Background(), cfg, runs, func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		if total != len(runs) {
			t.Errorf("progress total = %d, want %d", total, len(runs))
		}
		dones = append(dones, done)
	})
	if err != nil {
		t.Fatal(err)
	}
	got := outcomeSweepBytes(t, outs)
	if !bytes.Equal(got, want) {
		t.Fatalf("distributed sweep bytes differ from local:\nlocal: %s\ndistributed: %s", want, got)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < len(dones); i++ {
		if dones[i] <= dones[i-1] {
			t.Fatalf("progress not strictly increasing: %v", dones)
		}
	}
	if len(dones) == 0 || dones[len(dones)-1] != len(runs) {
		t.Fatalf("final progress %v, want last = %d", dones, len(runs))
	}
	st := c.Stats()
	if st.ShardsCompleted == 0 || st.RunnersLive != 4 {
		t.Fatalf("stats after run: %+v", st)
	}
}

// TestEmptyBatch pins the trivial edge: no runs, no outcomes, no error.
func TestEmptyBatch(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{})
	outs, err := c.Run(context.Background(), testConfig(), nil, nil)
	if err != nil || outs != nil {
		t.Fatalf("empty batch: outs=%v err=%v", outs, err)
	}
}

// TestLocalFallback runs a batch on a coordinator with no runners at
// all: the coordinator must execute everything in-process,
// byte-identical to a plain local sweep, without waiting for a join.
func TestLocalFallback(t *testing.T) {
	cfg, runs := testConfig(), testRuns()[:6]
	want := localSweepBytes(t, cfg, runs)
	c := NewCoordinator(CoordinatorOptions{ShardSize: 2, LocalParallelism: 2})
	outs, err := c.Run(context.Background(), cfg, runs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := outcomeSweepBytes(t, outs); !bytes.Equal(got, want) {
		t.Fatal("local-fallback sweep bytes differ from local run")
	}
	if st := c.Stats(); st.LocalShards == 0 {
		t.Fatalf("expected local fallback shards, stats %+v", st)
	}
}

// TestLoopbackExploreByteIdentity routes a design-space search through
// the coordinator's Evaluator and checks the canonical exploration
// document is byte-identical to a single-process search — at single
// fidelity and with multi-fidelity screening.
func TestLoopbackExploreByteIdentity(t *testing.T) {
	base := dse.Options{
		Families:     []string{"H2DSE"},
		Workloads:    []string{"mcf"},
		Budget:       6,
		BatchSize:    2,
		Seed:         7,
		InstrPerCore: 20_000,
		MaxPerParam:  3,
		Parallelism:  2,
	}
	for _, tc := range []struct {
		name   string
		screen uint64
	}{{"full-fidelity", 0}, {"screened", 8_000}} {
		t.Run(tc.name, func(t *testing.T) {
			opts := base
			opts.ScreenInstrPerCore = tc.screen
			local, err := dse.Search(context.Background(), opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := api.Encode(local.APIDoc())
			if err != nil {
				t.Fatal(err)
			}

			c := NewCoordinator(CoordinatorOptions{ShardSize: 2, MaxInFlight: 1})
			c.AttachLoopback(3, 1)
			opts.Eval = c.Evaluator()
			dist, err := dse.Search(context.Background(), opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := api.Encode(dist.APIDoc())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("distributed exploration differs from local:\nlocal: %s\ndistributed: %s", want, got)
			}
			if st := c.Stats(); st.ShardsCompleted == 0 {
				t.Fatalf("evaluator never dispatched shards: %+v", st)
			}
		})
	}
}

// gateTransport blocks every shard call until the gate channel closes,
// then executes normally — a deterministic straggler. took (optional) is
// invoked on entry, before blocking, so a test can observe that the
// straggler holds a shard.
type gateTransport struct {
	inner transport
	gate  chan struct{}
	took  func()
}

func (g gateTransport) runShard(ctx context.Context, req ShardRequest) (ShardResponse, error) {
	if g.took != nil {
		g.took()
	}
	select {
	case <-g.gate:
	case <-ctx.Done():
		return ShardResponse{}, ctx.Err()
	}
	return g.inner.runShard(ctx, req)
}

// afterTransport delays every shard call until ready closes — how the
// work-stealing test keeps the fast runner off the queue until the
// straggler holds a shard, making the steal deterministic instead of a
// race against goroutine scheduling.
type afterTransport struct {
	inner transport
	ready <-chan struct{}
}

func (a afterTransport) runShard(ctx context.Context, req ShardRequest) (ShardResponse, error) {
	select {
	case <-a.ready:
	case <-ctx.Done():
		return ShardResponse{}, ctx.Err()
	}
	return a.inner.runShard(ctx, req)
}

// TestWorkStealing pins the straggler path: a runner that hangs on its
// shard does not stall the batch — an idle runner steals the in-flight
// shard, the batch completes with byte-identical results, and the
// straggler's late duplicate response is discarded.
func TestWorkStealing(t *testing.T) {
	cfg, runs := testConfig(), testRuns()[:8]
	want := localSweepBytes(t, cfg, runs)

	gate := make(chan struct{})
	stragglerHolds := make(chan struct{})
	c := NewCoordinator(CoordinatorOptions{ShardSize: 1, MaxInFlight: 1, MaxSteals: 1})
	c.join(&runnerHandle{
		id:   "straggler",
		addr: "loopback",
		transport: gateTransport{
			inner: Exec{Parallelism: 1},
			gate:  gate,
			took:  sync.OnceFunc(func() { close(stragglerHolds) }),
		},
		loopback: true,
	})
	// The fast runner waits until the straggler holds a shard before
	// touching the queue; otherwise it can drain all eight shards before
	// the straggler's worker is ever scheduled and there is nothing to
	// steal.
	c.join(&runnerHandle{
		id:        "fast",
		addr:      "loopback",
		transport: afterTransport{inner: Exec{Parallelism: 1}, ready: stragglerHolds},
		loopback:  true,
	})

	outs, err := c.Run(context.Background(), cfg, runs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := outcomeSweepBytes(t, outs); !bytes.Equal(got, want) {
		t.Fatal("stolen sweep bytes differ from local run")
	}
	st := c.Stats()
	if st.ShardsStolen == 0 {
		t.Fatalf("expected stolen shards, stats %+v", st)
	}
	// Release the straggler; its duplicate completion must be discarded,
	// not double-counted.
	close(gate)
	deadline := time.Now().Add(5 * time.Second)
	for {
		st = c.Stats()
		if st.DuplicatesDropped >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("straggler's duplicate never settled, stats %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := outcomeSweepBytes(t, outs); !bytes.Equal(got, want) {
		t.Fatal("results mutated by the late duplicate")
	}
}

// heldTransport holds every call until its context is canceled, then
// lingers briefly — a losing steal still finishing its simulation — and
// records that it returned.
type heldTransport struct {
	took     func()
	returned *atomic.Bool
}

func (h heldTransport) runShard(ctx context.Context, _ ShardRequest) (ShardResponse, error) {
	h.took()
	<-ctx.Done()
	time.Sleep(20 * time.Millisecond)
	h.returned.Store(true)
	return ShardResponse{}, ctx.Err()
}

// TestRunWaitsForLosingSteals: Run returns only after every execution
// it started has returned. The losing execution of a stolen shard is
// canceled when the batch settles and awaited, so nothing keeps
// simulating (or writing to the store) behind the caller's back, and
// it counts as a dropped duplicate rather than a failure.
func TestRunWaitsForLosingSteals(t *testing.T) {
	cfg, runs := testConfig(), testRuns()[:1]
	holds := make(chan struct{})
	var returned atomic.Bool
	c := NewCoordinator(CoordinatorOptions{ShardSize: 1, MaxInFlight: 1, MaxSteals: 1})
	c.join(&runnerHandle{
		id:        "held",
		addr:      "loopback",
		transport: heldTransport{took: sync.OnceFunc(func() { close(holds) }), returned: &returned},
		loopback:  true,
	})
	// Whichever runner takes the shard first, the other steals it, and
	// only the fast one can finish.
	c.join(&runnerHandle{
		id:        "fast",
		addr:      "loopback",
		transport: afterTransport{inner: Exec{Parallelism: 1}, ready: holds},
		loopback:  true,
	})
	if _, err := c.Run(context.Background(), cfg, runs, nil); err != nil {
		t.Fatal(err)
	}
	if !returned.Load() {
		t.Fatal("Run returned while the losing execution was still running")
	}
	if st := c.Stats(); st.DuplicatesDropped != 1 || st.ShardsRetried != 0 || st.ShardsCompleted != 1 {
		t.Fatalf("stats %+v, want 1 completed shard and 1 dropped duplicate", st)
	}
}

// rejoinProbe counts the shard calls in flight across every handle of
// one runner ID, by handle generation. Each handle's transport is a
// rejoinTransport carrying its generation; gen is the live one.
type rejoinProbe struct {
	mu      sync.Mutex
	gen     int
	active  map[int]int
	cur     int
	peak    int
	retired int // calls started by a handle older than gen
}

type rejoinTransport struct {
	p   *rejoinProbe
	gen int
}

// runShard holds each call 20 ms and answers with empty outcomes.
func (r rejoinTransport) runShard(ctx context.Context, req ShardRequest) (ShardResponse, error) {
	p := r.p
	p.mu.Lock()
	if r.gen < p.gen {
		p.retired++
	}
	p.active[r.gen]++
	p.cur++
	p.peak = max(p.peak, p.cur)
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.active[r.gen]--
		p.cur--
		p.mu.Unlock()
	}()
	select {
	case <-time.After(20 * time.Millisecond):
	case <-ctx.Done():
		return ShardResponse{}, ctx.Err()
	}
	return ShardResponse{Runs: make([]RunOutcome, len(req.Runs))}, nil
}

// TestRejoinRetiresOldHandle re-registers a runner five times during one
// batch. Each re-join replaces the pool's handle, so the old handle's
// worker finishes its in-flight call and takes no further shard: calls
// on the runner never overlap by more than the old handle's last call
// plus the new handle's one slot.
func TestRejoinRetiresOldHandle(t *testing.T) {
	p := &rejoinProbe{active: make(map[int]int)}
	c := NewCoordinator(CoordinatorOptions{ShardSize: 1, MaxInFlight: 1, MaxSteals: -1})
	handle := func(gen int) *runnerHandle {
		return &runnerHandle{id: "r", addr: "loopback", transport: rejoinTransport{p: p, gen: gen}, loopback: true}
	}
	c.join(handle(0))
	runs := append(testRuns(), testRuns()...)
	done := make(chan error, 1)
	go func() {
		_, err := c.Run(context.Background(), testConfig(), runs, nil)
		done <- err
	}()
	for gen := 1; gen <= 5; gen++ {
		// Re-join while the live handle's call is held, with the probe
		// locked so that call cannot settle first: the retired worker's
		// next pick comes strictly after the join.
		deadline := time.Now().Add(10 * time.Second)
		for joined := false; !joined; {
			p.mu.Lock()
			if p.active[gen-1] > 0 {
				p.gen = gen
				c.join(handle(gen))
				joined = true
			}
			p.mu.Unlock()
			if !joined {
				select {
				case err := <-done:
					t.Fatalf("batch ended after %d re-joins (err %v)", gen-1, err)
				default:
				}
				if time.Now().After(deadline) {
					t.Fatalf("generation %d never took a shard", gen-1)
				}
				time.Sleep(time.Millisecond)
			}
		}
		// Space re-joins past the hold, so the retired call has settled.
		time.Sleep(30 * time.Millisecond)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	if p.retired != 0 {
		t.Errorf("retired handles started %d shard calls, want 0", p.retired)
	}
	if p.peak > 2 {
		t.Errorf("peak concurrent calls on the runner = %d, want <= 2", p.peak)
	}
	p.mu.Unlock()
	if st := c.Stats(); st.RunnersLive != 1 || st.RunnersJoined != 6 {
		t.Errorf("stats %+v, want 1 live runner after 6 joins", st)
	}

	// The gauge belongs to the runner ID: a call held across a re-join
	// still counts in flight until it settles, and the dispatch count
	// carries on. A one-shard batch leaves the new handle nothing to
	// dispatch, so the held call is the only one.
	go func() {
		_, err := c.Run(context.Background(), testConfig(), testRuns()[:1], nil)
		done <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		p.mu.Lock()
		if p.active[5] > 0 {
			break
		}
		p.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("the one-shard batch never reached the runner")
		}
		time.Sleep(time.Millisecond)
	}
	p.gen = 6
	c.join(handle(6))
	held := c.Stats()
	p.mu.Unlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	settled := c.Stats()
	want := []RunnerStat{{ID: "r", InFlight: 1, Dispatched: settled.ShardsDispatched}}
	if !reflect.DeepEqual(held.Runners, want) {
		t.Errorf("runner gauges right after a re-join with one call held: %+v, want %+v", held.Runners, want)
	}
	want[0].InFlight = 0
	if !reflect.DeepEqual(settled.Runners, want) {
		t.Errorf("runner gauges once the held call settled: %+v, want %+v", settled.Runners, want)
	}
}

// failTransport refuses every call — a runner whose process died.
type failTransport struct{}

func (failTransport) runShard(context.Context, ShardRequest) (ShardResponse, error) {
	return ShardResponse{}, errors.New("connection refused")
}

// dyingTransport completes a fixed number of shards, then fails forever
// — a runner killed mid-batch.
type dyingTransport struct {
	inner    transport
	mu       sync.Mutex
	survives int
}

func (d *dyingTransport) runShard(ctx context.Context, req ShardRequest) (ShardResponse, error) {
	d.mu.Lock()
	alive := d.survives > 0
	d.survives--
	d.mu.Unlock()
	if !alive {
		return ShardResponse{}, errors.New("runner killed")
	}
	return d.inner.runShard(ctx, req)
}

// TestRunnerDeathRedispatch kills a runner mid-batch (one completed
// shard, then hard failure): the coordinator must expel it, re-dispatch
// its work to the survivor, and still produce byte-identical output.
func TestRunnerDeathRedispatch(t *testing.T) {
	cfg, runs := testConfig(), testRuns()
	want := localSweepBytes(t, cfg, runs)

	c := NewCoordinator(CoordinatorOptions{
		ShardSize: 2, MaxInFlight: 1, FailuresToDrop: 1, RetryBackoff: time.Millisecond,
	})
	c.join(&runnerHandle{
		id:        "dying",
		addr:      "loopback",
		transport: &dyingTransport{inner: Exec{Parallelism: 1}, survives: 1},
		loopback:  true,
	})
	c.join(&runnerHandle{
		id:        "survivor",
		addr:      "loopback",
		transport: Exec{Parallelism: 1},
		loopback:  true,
	})

	outs, err := c.Run(context.Background(), cfg, runs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := outcomeSweepBytes(t, outs); !bytes.Equal(got, want) {
		t.Fatal("post-failure sweep bytes differ from local run")
	}
	st := c.Stats()
	if st.RunnersDropped == 0 {
		t.Fatalf("dying runner was never dropped, stats %+v", st)
	}
	if st.ShardsRetried == 0 && st.ShardsStolen == 0 {
		t.Fatalf("no re-dispatch recorded, stats %+v", st)
	}
	if st.RunnersLive != 1 {
		t.Fatalf("live runners = %d, want 1, stats %+v", st.RunnersLive, st)
	}
}

// flakyTransport drops (errors) every other response — lost RPC replies
// on an otherwise healthy runner.
type flakyTransport struct {
	inner transport
	mu    sync.Mutex
	calls int
}

func (f *flakyTransport) runShard(ctx context.Context, req ShardRequest) (ShardResponse, error) {
	f.mu.Lock()
	f.calls++
	drop := f.calls%2 == 1
	f.mu.Unlock()
	if drop {
		return ShardResponse{}, errors.New("response lost")
	}
	return f.inner.runShard(ctx, req)
}

// TestDroppedResponsesRetry pins the retry path: a runner losing half
// its replies still converges to byte-identical output, without being
// expelled.
func TestDroppedResponsesRetry(t *testing.T) {
	cfg, runs := testConfig(), testRuns()[:8]
	want := localSweepBytes(t, cfg, runs)

	c := NewCoordinator(CoordinatorOptions{
		ShardSize: 2, MaxInFlight: 1, MaxSteals: -1,
		FailuresToDrop: 100, MaxAttempts: 100, RetryBackoff: time.Millisecond,
	})
	c.join(&runnerHandle{
		id:        "flaky",
		addr:      "loopback",
		transport: &flakyTransport{inner: Exec{Parallelism: 2}},
		loopback:  true,
	})

	outs, err := c.Run(context.Background(), cfg, runs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := outcomeSweepBytes(t, outs); !bytes.Equal(got, want) {
		t.Fatal("flaky sweep bytes differ from local run")
	}
	st := c.Stats()
	if st.ShardsRetried == 0 {
		t.Fatalf("expected retried shards, stats %+v", st)
	}
	if st.RunnersDropped != 0 {
		t.Fatalf("flaky runner wrongly dropped, stats %+v", st)
	}
}

// TestShardExhaustsAttempts pins the give-up path: with every runner
// broken (the local fallback stands down while they are live), the
// batch must fail with a shard-attribution error instead of hanging.
func TestShardExhaustsAttempts(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{
		ShardSize: 2, MaxAttempts: 2, FailuresToDrop: 100, RetryBackoff: time.Millisecond,
	})
	c.join(&runnerHandle{id: "broken", addr: "loopback", transport: failTransport{}, loopback: true})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err := c.Run(ctx, testConfig(), testRuns()[:4], nil)
	if err == nil || ctx.Err() != nil {
		t.Fatalf("want attempt-budget failure, got err=%v ctx=%v", err, ctx.Err())
	}
}

// TestPerRunErrors checks malformed runs ride the outcome Err slots
// while healthy runs of the same shard still complete.
func TestPerRunErrors(t *testing.T) {
	cfg := testConfig()
	runs := []Run{
		{Design: "Baseline", Workload: "mcf", Ratio16: 1},
		{Design: "Baseline", Workload: "no-such-workload", Ratio16: 1},
		{Design: "no-such-design", Workload: "mcf", Ratio16: 1},
	}
	c := NewCoordinator(CoordinatorOptions{ShardSize: 4})
	c.AttachLoopback(1, 1)
	outs, err := c.Run(context.Background(), cfg, runs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Err != "" || outs[0].Result.Cycles == 0 {
		t.Fatalf("healthy run failed: %+v", outs[0])
	}
	if outs[1].Err == "" || outs[2].Err == "" {
		t.Fatalf("bad runs did not error: %+v %+v", outs[1], outs[2])
	}
}

// TestVersionMismatch pins the skew protection on both RPC directions.
func TestVersionMismatch(t *testing.T) {
	req := ShardRequest{Proto: ProtoVersion + 1, Schema: api.SchemaVersion, Engine: api.EngineVersion,
		Config: testConfig(), Runs: testRuns()[:1]}
	if _, err := (Exec{}).RunShard(context.Background(), req); err == nil {
		t.Fatal("runner accepted a proto-skewed shard")
	}

	c := NewCoordinator(CoordinatorOptions{})
	body, _ := json.Marshal(joinRequest{Proto: ProtoVersion, Schema: api.SchemaVersion + 1,
		Engine: api.EngineVersion, ID: "x", Addr: "http://127.0.0.1:1"})
	rec := httptest.NewRecorder()
	c.HandleJoin(rec, httptest.NewRequest(http.MethodPost, "/cluster/v1/join", bytes.NewReader(body)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("schema-skewed join answered %d, want 400", rec.Code)
	}
	if st := c.Stats(); st.RunnersLive != 0 {
		t.Fatalf("skewed runner registered: %+v", st)
	}
}

// TestHTTPClusterEndToEnd drives the real wire path: a coordinator
// behind an HTTP mux, two ServeNode runner processes that join and
// heartbeat, a sweep dispatched over sockets, then a hard runner kill
// followed by re-dispatch to the survivor.
func TestHTTPClusterEndToEnd(t *testing.T) {
	cfg, runs := testConfig(), testRuns()
	want := localSweepBytes(t, cfg, runs)

	c := NewCoordinator(CoordinatorOptions{
		ShardSize: 2, MaxInFlight: 1,
		HeartbeatInterval: 50 * time.Millisecond, HeartbeatTimeout: time.Second,
		RPCTimeout: 30 * time.Second, FailuresToDrop: 1, RetryBackoff: time.Millisecond,
	})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/v1/join", c.HandleJoin)
	mux.HandleFunc("POST /cluster/v1/heartbeat", c.HandleHeartbeat)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killCtx, kill := context.WithCancel(ctx)
	defer kill()
	addrs := make(chan string, 2)
	nodeErr := make(chan error, 2)
	go func() {
		nodeErr <- ServeNode(killCtx, NodeOptions{Join: ts.URL, ID: "r1", Parallelism: 1,
			OnListen: func(a string) { addrs <- a }})
	}()
	go func() {
		nodeErr <- ServeNode(ctx, NodeOptions{Join: ts.URL, ID: "r2", Parallelism: 1,
			OnListen: func(a string) { addrs <- a }})
	}()
	r1Addr := <-addrs
	<-addrs

	waitFor(t, 10*time.Second, func() bool { return c.Stats().RunnersLive == 2 })

	// Runner health reports coordinator attachment.
	var health struct {
		Status      string `json:"status"`
		Role        string `json:"role"`
		Coordinator string `json:"coordinator"`
		Attached    bool   `json:"attached"`
	}
	waitFor(t, 10*time.Second, func() bool {
		resp, err := http.Get("http://" + r1Addr + "/healthz")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
			return false
		}
		return health.Attached
	})
	if health.Role != "runner" || health.Coordinator != ts.URL || health.Status != "ok" {
		t.Fatalf("runner health = %+v", health)
	}

	outs, err := c.Run(ctx, cfg, runs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := outcomeSweepBytes(t, outs); !bytes.Equal(got, want) {
		t.Fatal("HTTP sweep bytes differ from local run")
	}

	// Kill runner 1 (its HTTP server and heartbeats die with its ctx) and
	// run again: the coordinator must expel it on RPC failure or
	// heartbeat expiry and finish on the survivor, byte-identically.
	kill()
	if err := <-nodeErr; err != nil {
		t.Fatalf("killed runner exited with %v", err)
	}
	outs, err = c.Run(ctx, cfg, runs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := outcomeSweepBytes(t, outs); !bytes.Equal(got, want) {
		t.Fatal("post-kill sweep bytes differ from local run")
	}
	waitFor(t, 10*time.Second, func() bool { return c.Stats().RunnersLive == 1 })
	if st := c.Stats(); st.RunnersDropped == 0 {
		t.Fatalf("killed runner never dropped: %+v", st)
	}
}

// TestHeartbeatExpiry checks a silent runner is pruned even while no
// batch is running (the serve layer's /metrics reads liveness between
// jobs), via the stats-path prune in Stats' callers.
func TestHeartbeatExpiry(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{
		HeartbeatInterval: 10 * time.Millisecond, HeartbeatTimeout: 50 * time.Millisecond,
	})
	c.Join("ghost", "http://127.0.0.1:1")
	if got := c.Stats().RunnersLive; got != 1 {
		t.Fatalf("live after join = %d, want 1", got)
	}
	if !c.Heartbeat("ghost") {
		t.Fatal("heartbeat for a registered runner refused")
	}
	time.Sleep(80 * time.Millisecond)
	c.pruneExpired()
	if got := c.Stats().RunnersLive; got != 0 {
		t.Fatalf("live after expiry = %d, want 0", got)
	}
	if c.Heartbeat("ghost") {
		t.Fatal("heartbeat for an expired runner accepted; it must rejoin")
	}
}

// TestDistributedSweepSpeedup measures the wall-clock benefit of the
// execution plane itself: the same sweep through one loopback runner
// versus four (each single-threaded) must be at least twice as fast on
// a machine with >= 4 CPUs. Skipped on smaller machines — determinism
// tests above cover correctness there; BenchmarkDistributedSweep gives
// the comparison on any machine.
func TestDistributedSweepSpeedup(t *testing.T) {
	if runtime.NumCPU() < 4 || runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("need >= 4 CPUs for a meaningful speedup test, have %d", runtime.NumCPU())
	}
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	cfg := Config{Scale: 16, InstrPerCore: 120_000, Seed: 1}
	var runs []Run
	for _, d := range []string{"Baseline", "MPOD", "CHA", "DFC-256", "IDEAL-256", "TAGLESS"} {
		for _, w := range []string{"mcf", "lbm", "omnetpp", "bwaves"} {
			runs = append(runs, Run{Design: d, Workload: w, Ratio16: 1})
		}
	}
	elapsed := func(n int) time.Duration {
		c := NewCoordinator(CoordinatorOptions{ShardSize: 1, MaxInFlight: 1, MaxSteals: -1})
		c.AttachLoopback(n, 1)
		start := time.Now()
		if _, err := c.Run(context.Background(), cfg, runs, nil); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	serial := elapsed(1)
	par := elapsed(4)
	speedup := float64(serial) / float64(par)
	t.Logf("1 runner %v, 4 runners %v, speedup %.2fx on %d CPUs", serial, par, speedup, runtime.NumCPU())
	if speedup < 2 {
		t.Errorf("distributed sweep speedup %.2fx, want >= 2x on %d CPUs", speedup, runtime.NumCPU())
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition not reached within %v", d)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
