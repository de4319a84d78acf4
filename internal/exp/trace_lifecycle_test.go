package exp

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// lateReadDetector wraps a trace input and counts the Reads made after
// the replay that owns it has returned. It serves at most 16 bytes per
// Read, so a decoder that was not stopped is almost surely reading when
// the replay returns.
type lateReadDetector struct {
	r        io.Reader
	returned atomic.Bool
	late     atomic.Int64
}

func (d *lateReadDetector) Read(p []byte) (int, error) {
	if d.returned.Load() {
		d.late.Add(1)
	}
	runtime.Gosched()
	return d.r.Read(p[:min(len(p), 16)])
}

// repeatReader yields its line forever: an unbounded trace.
type repeatReader struct {
	line string
	off  int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], r.line[r.off:])
		n += c
		r.off = (r.off + c) % len(r.line)
	}
	return n, nil
}

// TestRunTraceStopsDecodingOnReturn pins the decode-ahead goroutine's
// lifetime: however a replay ends — drained, a window-skew error, a
// mid-stream decode error, or a design panic recovered by execute —
// RunTrace returns only after the goroutine has exited, so the goroutine
// count returns to its baseline and the input sees no Read afterwards.
// serve's /v1/replay hands RunTrace a request body, which must not be
// read once the handler returns.
func TestRunTraceStopsDecodingOnReturn(t *testing.T) {
	var rr strings.Builder
	for i := 0; i < 2000; i++ {
		for c := 0; c < 8; c++ {
			fmt.Fprintf(&rr, "%d 3 %x R\n", c, (i*8+c)*64)
		}
	}
	roundRobin := rr.String()
	for _, tc := range []struct {
		name          string
		scale, window int
		input         func() io.Reader
		wantErr       string
	}{
		{"drained", 0, 0, func() io.Reader { return strings.NewReader(roundRobin) }, ""},
		{"window skew", 0, 8, func() io.Reader { return &repeatReader{line: "7 1 40 R\n"} }, "window"},
		{"decode error", 0, 0, func() io.Reader {
			return io.MultiReader(strings.NewReader(roundRobin), strings.NewReader("bad line\n"))
		}, "line 16001"},
		// At this scale the LLC's set count is not a power of two, and
		// building the machine panics.
		{"design panic", 1 << 14, 0, func() io.Reader { return &repeatReader{line: "7 1 40 R\n"} }, "exp: run t/Baseline: cachesim"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			r := tiny()
			if tc.scale != 0 {
				r.Scale = tc.scale
			}
			r.TraceWindow = tc.window
			in := &lateReadDetector{r: tc.input()}
			_, err := r.RunTrace("t", in, "Baseline", 1, 2)
			in.returned.Store(true)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatal(err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("got error %v, want one containing %q", err, tc.wantErr)
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after RunTrace returned, %d before", runtime.NumGoroutine(), base)
				}
				time.Sleep(time.Millisecond)
			}
			if n := in.late.Load(); n > 0 {
				t.Fatalf("input read %d times after RunTrace returned", n)
			}
		})
	}
}
