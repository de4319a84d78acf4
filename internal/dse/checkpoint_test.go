package dse

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// oneRoundCheckpoint runs opts for one round and returns the
// checkpoint it writes.
func oneRoundCheckpoint(t testing.TB, opts Options) []byte {
	t.Helper()
	opts.MaxRounds = 1
	opts.Checkpoint = filepath.Join(t.TempDir(), "ck.json")
	if _, err := Search(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(opts.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// resumeFrom resumes opts from a checkpoint holding data. A panic is
// re-raised as a test failure, so every case of a table still runs.
func resumeFrom(t *testing.T, opts Options, data []byte) (res Result, err error) {
	t.Helper()
	opts.Checkpoint = filepath.Join(t.TempDir(), "ck.json")
	opts.Resume = true
	if err := os.WriteFile(opts.Checkpoint, data, 0o644); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("resume panicked: %v", r)
		}
	}()
	return Search(context.Background(), opts)
}

// TestResumeRejectsUnreachableState pins that restore refuses a
// checkpoint the search could not have written, with an error rather
// than a panic or a silently different search.
func TestResumeRejectsUnreachableState(t *testing.T) {
	one := oneRoundCheckpoint(t, tinyOpts())
	screened := oneRoundCheckpoint(t, screenOpts())
	// A screened checkpoint past the screening phase, for the promotion
	// check: screenOpts screens 12 designs in rounds of 2.
	late := screenOpts()
	late.MaxRounds = 7
	late.Checkpoint = filepath.Join(t.TempDir(), "late.json")
	if _, err := Search(context.Background(), late); err != nil {
		t.Fatal(err)
	}
	promotedCk, err := os.ReadFile(late.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		opts    Options
		ck      []byte
		corrupt func(ck *checkpoint)
	}{
		{"screened points in a single-fidelity checkpoint", tinyOpts(), one, func(ck *checkpoint) {
			ck.Screened = ck.Evaluated[:1]
		}},
		{"screening baseline in a single-fidelity checkpoint", tinyOpts(), one, func(ck *checkpoint) {
			ck.ScreenBaselineCycles = ck.BaselineCycles
		}},
		{"zero-cycle baseline", tinyOpts(), one, func(ck *checkpoint) {
			ck.BaselineCycles = []uint64{0}
		}},
		{"zero-cycle screening baseline", screenOpts(), screened, func(ck *checkpoint) {
			ck.ScreenBaselineCycles = []uint64{0}
		}},
		{"missing screening baseline", screenOpts(), screened, func(ck *checkpoint) {
			ck.ScreenBaselineCycles = nil
		}},
		{"design listed twice", tinyOpts(), one, func(ck *checkpoint) {
			ck.Evaluated[1] = ck.Evaluated[0]
		}},
		{"screened design listed twice", screenOpts(), screened, func(ck *checkpoint) {
			ck.Screened[1] = ck.Screened[0]
		}},
		{"design outside the space", tinyOpts(), one, func(ck *checkpoint) {
			ck.Evaluated[0].Design = "HYBRID2"
		}},
		{"feasible point with zero speedup", tinyOpts(), one, func(ck *checkpoint) {
			ck.Evaluated[0] = Point{Design: ck.Evaluated[0].Design}
		}},
		{"feasible point with a foreign capacity", tinyOpts(), one, func(ck *checkpoint) {
			ck.Evaluated[0].Infeasible = false
			ck.Evaluated[0].Speedup = 1
			ck.Evaluated[0].CapacityMB = 3
		}},
		{"more rounds than points", tinyOpts(), one, func(ck *checkpoint) {
			ck.Rounds = 3
		}},
		{"negative rounds", tinyOpts(), one, func(ck *checkpoint) {
			ck.Rounds = -1
		}},
		{"full evaluation during screening", screenOpts(), screened, func(ck *checkpoint) {
			ck.Evaluated = ck.Screened[:1]
			ck.Rounds++
		}},
		{"full evaluation of an unpromoted design", screenOpts(), promotedCk, func(ck *checkpoint) {
			// Only screened designs are promoted.
			sc, err := newSearcher(screenOpts())
			if err != nil {
				t.Fatal(err)
			}
			screened := map[string]bool{}
			for _, p := range ck.Screened {
				screened[p.Design] = true
			}
			for _, c := range sc.space {
				if !screened[c.Name] {
					ck.Evaluated[0] = Point{Design: c.Name, Infeasible: true}
					return
				}
			}
			t.Fatal("screening covered the whole space")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ck checkpoint
			if err := json.Unmarshal(tc.ck, &ck); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(&ck)
			data, err := json.Marshal(&ck)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := resumeFrom(t, tc.opts, data); err == nil {
				t.Fatal("resume accepted the corrupt checkpoint")
			}
		})
	}
}

// FuzzCheckpoint feeds arbitrary bytes to a resumed search: it must
// never panic, and a search that succeeds must report only feasible
// points with a positive speedup — a corrupt checkpoint gets an error,
// never a wrong frontier.
func FuzzCheckpoint(f *testing.F) {
	f.Add(oneRoundCheckpoint(f, tinyOpts()), false)
	f.Add(oneRoundCheckpoint(f, screenOpts()), true)
	f.Fuzz(func(t *testing.T, data []byte, screen bool) {
		opts := tinyOpts()
		if screen {
			opts = screenOpts()
		}
		res, err := resumeFrom(t, opts, data)
		if err != nil {
			return
		}
		for _, trail := range [][]Point{res.Frontier, res.Evaluated, res.Screened} {
			for _, p := range trail {
				if !p.Infeasible && !(p.Speedup > 0) {
					t.Fatalf("resumed search reports %s at speedup %v", p.Design, p.Speedup)
				}
			}
		}
	})
}
