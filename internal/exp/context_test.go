package exp

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestCanceledContextAbortsParallelSweep asserts that a pre-canceled
// context fails the whole sweep with ctx.Err() without simulating
// anything: every error slot is the cancellation, and the call returns
// far faster than the sweep would take to run.
func TestCanceledContextAbortsParallelSweep(t *testing.T) {
	for _, workers := range []int{1, 8} {
		r := tiny()
		r.Parallelism = workers
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		specs := r.SweepSpecs(withBaseline(MainDesigns), []int{1, 2, 4})
		start := time.Now()
		res, err := r.ResultsParallelProgress(ctx, specs, nil)
		if err == nil {
			t.Fatalf("parallelism %d: canceled sweep returned no error", workers)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism %d: error %v is not context.Canceled", workers, err)
		}
		for i, sr := range res {
			if sr.Cycles != 0 {
				t.Fatalf("parallelism %d: run %d executed despite cancellation", workers, i)
			}
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("parallelism %d: canceled sweep took %v", workers, d)
		}
	}
}

// TestCancelMidSweepAbandonsQueuedWork cancels after the first completed
// run and asserts the queued remainder is skipped, not simulated: with a
// single worker the runs execute in index order, so everything after the
// cancellation point must settle as ctx.Err().
func TestCancelMidSweepAbandonsQueuedWork(t *testing.T) {
	r := tiny()
	r.Parallelism = 1
	ctx, cancel := context.WithCancel(context.Background())
	specs := r.SweepSpecs(withBaseline([]string{"HYBRID2", "MPOD", "TAGLESS"}), []int{1})
	ran := 0
	out := make([]error, len(specs))
	err := r.parallelForCtx(ctx, len(specs), func(i int) error {
		ran++
		if ran == 1 {
			cancel()
		}
		_, err := r.ResultErr(specs[i].Workload, specs[i].Design, specs[i].Ratio16)
		out[i] = err
		return err
	})
	if ran != 1 {
		t.Fatalf("%d runs executed after cancellation, want 1", ran)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("joined error %v is not context.Canceled", err)
	}
}

// TestResultsParallelProgressReports asserts the progress hook fires
// once per settled run with a strictly increasing done count reaching
// the total, at any parallelism, and that results match the plain path.
func TestResultsParallelProgressReports(t *testing.T) {
	for _, workers := range []int{1, 4} {
		r := tiny()
		r.Parallelism = workers
		specs := r.SweepSpecs(withBaseline([]string{"HYBRID2"}), []int{1})
		var calls []int
		res, err := r.ResultsParallelProgress(context.Background(), specs, func(done, total int) {
			if total != len(specs) {
				t.Fatalf("parallelism %d: total %d, want %d", workers, total, len(specs))
			}
			calls = append(calls, done)
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(calls) != len(specs) {
			t.Fatalf("parallelism %d: %d progress calls for %d runs", workers, len(calls), len(specs))
		}
		for i, d := range calls {
			if d != i+1 {
				t.Fatalf("parallelism %d: progress call %d reported done=%d", workers, i, d)
			}
		}
		plain := tiny()
		plain.Parallelism = workers
		want, err := plain.ResultsParallel(specs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range res {
			if res[i] != want[i] {
				t.Fatalf("parallelism %d: run %d differs from plain parallel path", workers, i)
			}
		}
	}
}
