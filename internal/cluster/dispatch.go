package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hybridmem/internal/api"
	"hybridmem/internal/exp"
	"hybridmem/internal/obs"
)

// shardState tracks one shard through dispatch. Guarded by the
// dispatcher's mu.
type shardState struct {
	idx    int
	lo, hi int // index range [lo, hi) of the batch's cold runs
	execs  map[*runnerHandle]bool
	failed int // completed failed attempts
	done   bool
}

// dispatcher drives one batch across the runner pool: a pull-based
// queue where every runner's worker slots take pending shards first and
// steal in-flight stragglers when the queue runs dry. All scheduling is
// free-form; determinism comes from writing every outcome back to its
// run's input position.
type dispatcher struct {
	c        *Coordinator
	cfg      Config
	progress func(done, total int)
	ctx      context.Context
	workers  sync.WaitGroup // this batch's worker and monitor goroutines

	// out holds the batch's outcomes in input order; the store settles
	// warm runs up front and shard completions fill in the rest. cold
	// lists the runs left to dispatch, at input positions coldIdx and
	// with run keys keys ("" when the store cannot hold the run).
	out     []RunOutcome
	cold    []exp.Run
	coldIdx []int
	keys    []string
	// rec reads and writes run records in the coordinator's store; nil
	// without a disk tier.
	rec *exp.Runner

	mu        sync.Mutex
	cond      *sync.Cond
	shards    []*shardState
	pending   []int
	remaining int
	doneRuns  int
	fatal     error
	finished  bool
	started   map[*runnerHandle]bool
}

// newDispatcher settles every run whose record the coordinator's store
// already holds — those never enter a shard — and cuts the cold rest
// into shards.
func newDispatcher(c *Coordinator, cfg Config, runs []exp.Run, progress func(done, total int)) *dispatcher {
	d := &dispatcher{
		c:        c,
		cfg:      cfg,
		progress: progress,
		out:      make([]RunOutcome, len(runs)),
		started:  make(map[*runnerHandle]bool),
	}
	d.cond = sync.NewCond(&d.mu)
	if c.opts.Store.HasDisk() {
		d.rec = &exp.Runner{Scale: cfg.Scale, InstrPerCore: cfg.InstrPerCore, Seed: cfg.Seed, Store: c.opts.Store}
	}
	for i, run := range runs {
		key := ""
		if d.rec != nil {
			// A malformed design has no key; its run is dispatched and
			// its runner reports the error.
			key, _ = d.rec.RunKey(run.Design, run.Workload, run.Ratio16)
		}
		if key != "" {
			if res, ok := d.rec.Recall(key); ok {
				d.out[i].Result = res
				d.doneRuns++
				continue
			}
		}
		d.cold = append(d.cold, run)
		d.coldIdx = append(d.coldIdx, i)
		d.keys = append(d.keys, key)
	}
	c.noteWarmRuns(d.doneRuns)
	if progress != nil && d.doneRuns > 0 {
		progress(d.doneRuns, len(runs))
	}
	for lo := 0; lo < len(d.cold); lo += c.opts.ShardSize {
		idx := len(d.shards)
		d.shards = append(d.shards, &shardState{
			idx: idx, lo: lo, hi: min(lo+c.opts.ShardSize, len(d.cold)), execs: make(map[*runnerHandle]bool),
		})
		d.pending = append(d.pending, idx)
	}
	d.remaining = len(d.pending)
	return d
}

// run executes the batch: workers for every current runner plus the
// local fallback, a monitor for liveness and late joiners, and a wait
// for the last shard. The fallback takes shards only while the pool is
// empty, so a runnerless (or fully failed) cluster degrades to
// in-process execution instead of stalling. Once the batch settles its
// context is canceled and run waits for its own goroutines, so no
// losing steal is still simulating (or writing to the store) after run
// returns.
func (d *dispatcher) run(parent context.Context) ([]RunOutcome, error) {
	ctx, cancel := context.WithCancel(parent)
	defer d.workers.Wait()
	defer cancel()
	d.mu.Lock()
	d.ctx = ctx
	d.mu.Unlock()

	c := d.c
	c.mu.Lock()
	c.active = append(c.active, d)
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		for i, a := range c.active {
			if a == d {
				c.active = append(c.active[:i], c.active[i+1:]...)
				break
			}
		}
		c.mu.Unlock()
	}()

	stop := context.AfterFunc(ctx, d.wake)
	defer stop()
	d.workers.Add(1)
	go func() {
		defer d.workers.Done()
		d.monitor(ctx)
	}()

	for _, h := range c.liveRunners() {
		d.addRunner(h)
	}
	d.addRunner(&runnerHandle{
		id:        "local",
		addr:      "local",
		transport: c.exec(c.localParallelism()),
		loopback:  true,
		local:     true,
		gauge:     new(runnerGauge),
	})

	d.mu.Lock()
	for d.fatal == nil && d.remaining > 0 && ctx.Err() == nil {
		d.cond.Wait()
	}
	d.finished = true
	err := d.fatal
	if err == nil {
		err = ctx.Err()
	}
	d.cond.Broadcast()
	d.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return d.out, nil
}

// wake pokes every waiting worker and the run loop.
func (d *dispatcher) wake() {
	d.mu.Lock()
	d.cond.Broadcast()
	d.mu.Unlock()
}

// addRunner spawns this batch's worker slots for a runner — called for
// the pool at start and by Coordinator.join for runners arriving
// mid-batch. Idempotent per handle.
func (d *dispatcher) addRunner(h *runnerHandle) {
	d.mu.Lock()
	if d.finished || d.started[h] || d.ctx == nil {
		d.mu.Unlock()
		return
	}
	d.started[h] = true
	ctx := d.ctx
	// Added under mu, before run can set finished and start waiting.
	d.workers.Add(d.c.opts.MaxInFlight)
	d.mu.Unlock()
	for i := 0; i < d.c.opts.MaxInFlight; i++ {
		go func() {
			defer d.workers.Done()
			d.worker(ctx, h)
		}()
	}
	d.wake()
}

// monitor prunes heartbeat-expired runners while the batch runs. Late
// joiners get workers through Coordinator.join directly.
func (d *dispatcher) monitor(ctx context.Context) {
	interval := min(d.c.opts.HeartbeatInterval, 500*time.Millisecond)
	for ctx.Err() == nil {
		sleepCtx(ctx, interval)
		d.c.pruneExpired()
	}
}

// worker is one in-flight slot of one runner: take a shard, execute the
// RPC, settle the outcome; repeat until the batch (or the runner) is
// done. Consecutive RPC failures back off and eventually expel the
// runner from the pool, requeueing its work.
func (d *dispatcher) worker(ctx context.Context, h *runnerHandle) {
	consecutive := 0
	dispatchPhase := obs.PhaseHist(d.c.opts.Obs.Registry()).With("dispatch")
	for {
		sh, stolen, ok := d.next(ctx, h)
		if !ok {
			return
		}
		// One span per dispatch attempt, hanging off the batch span; the
		// shard's trace identity rides the wire (version-gated: the field
		// is absent with tracing off) so the runner's own span links in.
		ssp := obs.SpanFrom(ctx).Child("shard",
			obs.Int("shard", int64(sh.idx)), obs.String("runner", h.id))
		if stolen {
			ssp.Event("stolen")
		}
		var wireTrace *api.Trace
		if ssp != nil {
			wireTrace = &api.Trace{TraceID: ssp.TraceID(), SpanID: ssp.SpanID()}
		}
		start := time.Now()
		rpcCtx, cancel := context.WithTimeout(ctx, d.c.opts.RPCTimeout)
		resp, err := h.transport.runShard(rpcCtx, ShardRequest{
			Proto:  ProtoVersion,
			Schema: api.SchemaVersion,
			Engine: api.EngineVersion,
			Shard:  sh.idx,
			Config: d.cfg,
			Runs:   d.cold[sh.lo:sh.hi],
			Trace:  wireTrace,
		})
		cancel()
		dispatchPhase.ObserveDuration(time.Since(start))
		if err == nil && len(resp.Runs) != sh.hi-sh.lo {
			err = fmt.Errorf("cluster: runner %s returned %d outcomes for %d runs", h.id, len(resp.Runs), sh.hi-sh.lo)
		}
		// Remote runners echo their span events in the response; fold
		// them into the coordinator's flight recorder so one dump holds
		// the whole distributed timeline. Loopback and local executors
		// share this recorder and already recorded directly — folding
		// their echoes again would duplicate every event.
		if err == nil && !h.loopback {
			d.c.opts.Obs.Flight().RecordAll(resp.Events)
		}
		if err != nil {
			ssp.Event("attempt_failed")
			ssp.End()
			d.fail(sh, h, err)
			if ctx.Err() != nil {
				return
			}
			consecutive++
			d.c.opts.Log.Warn("cluster: shard attempt failed",
				"shard", sh.idx, "runner", h.id, "strike", consecutive, "err", err)
			if consecutive >= d.c.opts.FailuresToDrop && !h.local {
				d.c.dropRunner(h, fmt.Sprintf("%d consecutive RPC failures", consecutive))
				return
			}
			sleepCtx(ctx, time.Duration(consecutive)*d.c.opts.RetryBackoff)
			continue
		}
		ssp.End()
		consecutive = 0
		d.complete(sh, h, resp.Runs)
	}
}

// next blocks until there is a shard for this runner (pending first,
// then a steal), or the batch no longer needs it. The local fallback
// handle stands down whenever any real runner is live.
func (d *dispatcher) next(ctx context.Context, h *runnerHandle) (*shardState, bool, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.finished || d.fatal != nil || d.remaining == 0 || ctx.Err() != nil || d.c.isDead(h) {
			return nil, false, false
		}
		var sh *shardState
		stolen := false
		switch {
		case h.local && d.c.liveCount() > 0:
			// Real runners own the queue; the fallback only runs when the
			// pool is empty.
		case len(d.pending) > 0:
			sh = d.shards[d.pending[0]]
			d.pending = d.pending[1:]
		case d.c.opts.MaxSteals > 0:
			// Steal the lowest-index straggler this runner is not already
			// executing, bounded to 1+MaxSteals concurrent executions.
			for _, cand := range d.shards {
				if !cand.done && len(cand.execs) >= 1 && len(cand.execs) <= d.c.opts.MaxSteals && !cand.execs[h] {
					sh = cand
					stolen = true
					break
				}
			}
		}
		if sh != nil {
			sh.execs[h] = true
			d.c.noteDispatch(h, stolen, h.local)
			return sh, stolen, true
		}
		d.cond.Wait()
	}
}

// complete settles a successful execution. The first response for a
// shard wins; any later duplicate (a steal that lost the race) is
// discarded — sound because executions are deterministic, so duplicates
// are identical.
func (d *dispatcher) complete(sh *shardState, h *runnerHandle, outs []RunOutcome) {
	d.mu.Lock()
	delete(sh.execs, h)
	if sh.done {
		d.mu.Unlock()
		d.c.noteSettled(h, true)
		d.wake()
		return
	}
	sh.done = true
	d.mu.Unlock()
	// Only the winning completion reaches here, so the writes below need
	// no lock. Every successful run is persisted under its run key before
	// the batch can observe completion, so a caller that sees Run return
	// finds every run on disk; a failed run is recomputed, never replayed
	// from the store.
	for k, o := range outs {
		j := sh.lo + k
		d.out[d.coldIdx[j]] = o
		if o.Err == "" && d.keys[j] != "" {
			d.rec.Persist(d.keys[j], o.Result)
		}
	}
	d.mu.Lock()
	d.remaining--
	d.doneRuns += len(outs)
	if d.progress != nil {
		// Under mu: progress calls stay serialized with done strictly
		// increasing, matching the in-process runner's contract.
		d.progress(d.doneRuns, len(d.out))
	}
	d.mu.Unlock()
	d.c.noteSettled(h, false)
	d.wake()
}

// fail settles a failed execution: requeue the shard once no execution
// of it remains (a surviving steal may still complete it), or give up
// on the whole batch when the shard exhausts its attempt budget. An
// execution of a shard another one already completed — typically a
// losing steal canceled as its batch settles — is a dropped duplicate,
// not a failure.
func (d *dispatcher) fail(sh *shardState, h *runnerHandle, err error) {
	d.mu.Lock()
	delete(sh.execs, h)
	if sh.done {
		d.mu.Unlock()
		d.c.noteSettled(h, true)
		d.wake()
		return
	}
	retried := false
	sh.failed++
	if len(sh.execs) == 0 {
		if sh.failed >= d.c.opts.MaxAttempts {
			d.fatal = fmt.Errorf("cluster: shard %d failed %d attempt(s), giving up: %w", sh.idx, sh.failed, err)
		} else {
			d.pending = append(d.pending, sh.idx)
			retried = true
		}
	}
	d.mu.Unlock()
	d.c.noteFailed(h, retried)
	d.wake()
}
