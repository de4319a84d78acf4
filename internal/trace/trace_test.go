package trace

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"hybridmem/internal/memtypes"
)

const sample = `# comment and blank lines are ignored

0 12 1000 R
1 3 0x2040 W
0 7 10c0 r
7 0 ff w
`

// sliceSource is a Source over records held in memory that hands out at
// most step records per call, so tests can vary the pull granularity.
type sliceSource struct {
	recs []memtypes.Rec
	step int
}

func (s *sliceSource) NextBatch(dst []memtypes.Rec) int {
	if len(dst) > s.step {
		dst = dst[:s.step]
	}
	n := copy(dst, s.recs)
	s.recs = s.recs[n:]
	return n
}

// sources wraps per-core record slices as sources pulled step records at
// a time.
func sources(cores [][]memtypes.Rec, step int) []Source {
	srcs := make([]Source, len(cores))
	for c := range cores {
		srcs[c] = &sliceSource{recs: cores[c], step: step}
	}
	return srcs
}

// writeCores serializes per-core records the way cmd/tracegen does:
// interleaved by instruction position through a StreamWriter.
func writeCores(w io.Writer, cores [][]memtypes.Rec, format Format) error {
	sw := NewStreamWriter(w, format, false)
	it := NewInterleaver(sources(cores, interleaveBatch))
	for {
		core, rec, ok := it.Next()
		if !ok {
			break
		}
		if err := sw.Append(core, rec); err != nil {
			return err
		}
	}
	return sw.Close()
}

// replayCores streams a trace (any encoding) through a StreamReader,
// pulling the cores round-robin in batches of 7 records, and returns
// each core's records.
func replayCores(r io.Reader, maxCores int) ([][]memtypes.Rec, error) {
	sr, err := NewStreamReader(r, maxCores, 0)
	if err != nil {
		return nil, err
	}
	out := make([][]memtypes.Rec, maxCores)
	var buf [7]memtypes.Rec
	for live := true; live; {
		live = false
		for c := range out {
			if n := sr.Source(c).NextBatch(buf[:]); n > 0 {
				out[c] = append(out[c], buf[:n]...)
				live = true
			}
		}
	}
	return out, sr.Err()
}

func countRecords(cores [][]memtypes.Rec) int {
	n := 0
	for _, c := range cores {
		n += len(c)
	}
	return n
}

func TestReadSample(t *testing.T) {
	cores, err := replayCores(strings.NewReader(sample), 8)
	if err != nil {
		t.Fatal(err)
	}
	if n := countRecords(cores); n != 4 {
		t.Fatalf("records %d, want 4", n)
	}
	if len(cores[0]) != 2 || len(cores[1]) != 1 || len(cores[7]) != 1 {
		t.Fatalf("per-core counts wrong: %d/%d/%d", len(cores[0]), len(cores[1]), len(cores[7]))
	}
	r := cores[0][0]
	if r.Gap != 12 || r.Addr != 0x1000 || r.Write {
		t.Fatalf("record mismatch: %+v", r)
	}
	if !cores[1][0].Write {
		t.Fatal("W record parsed as read")
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"0 1 1000",   // missing field
		"9 1 1000 R", // core out of range
		"0 x 1000 R", // bad gap
		"0 1 zz R",   // bad address
		"0 1 1000 X", // bad type
	}
	for _, c := range cases {
		if _, err := replayCores(strings.NewReader(c), 8); err == nil {
			t.Errorf("input %q accepted", c)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		cores := make([][]memtypes.Rec, 8)
		s := uint64(seed)
		n := int(s%50) + 1
		for i := 0; i < n; i++ {
			s = s*6364136223846793005 + 1
			core := int(s % 8)
			cores[core] = append(cores[core], memtypes.Rec{
				Gap:   s % 1000,
				Addr:  memtypes.Addr(s % (1 << 30)),
				Write: s%3 == 0,
			})
		}
		var buf bytes.Buffer
		if err := writeCores(&buf, cores, FormatText); err != nil {
			return false
		}
		back, err := replayCores(&buf, 8)
		if err != nil {
			return false
		}
		for c := range cores {
			if len(back[c]) != len(cores[c]) {
				return false
			}
			for i := range cores[c] {
				if back[c][i] != cores[c][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestInterleaverYieldsRecordsInOrder pins that the interleaver's output
// does not depend on how its sources are pulled: sources handing out one
// record per call and sources handing out whole batches give the same
// global sequence, and every core's records come out whole and in
// program order across batch boundaries.
func TestInterleaverYieldsRecordsInOrder(t *testing.T) {
	cores := make([][]memtypes.Rec, 5)
	s := uint64(3)
	for c := range cores {
		for i := 0; i < 150+40*c; i++ {
			s = s*6364136223846793005 + 1
			cores[c] = append(cores[c], memtypes.Rec{Gap: s >> 58, Addr: memtypes.Addr(s >> 20 &^ 63), Write: s%7 == 0})
		}
	}
	type coreRec struct {
		core int
		rec  memtypes.Rec
	}
	merge := func(step int) []coreRec {
		var out []coreRec
		it := NewInterleaver(sources(cores, step))
		for {
			core, rec, ok := it.Next()
			if !ok {
				return out
			}
			out = append(out, coreRec{core, rec})
		}
	}
	want := merge(1)
	for _, step := range []int{3, interleaveBatch, 1 << 20} {
		if got := merge(step); !reflect.DeepEqual(got, want) {
			t.Fatalf("pulling %d records per call changed the interleaving", step)
		}
	}
	back := make([][]memtypes.Rec, len(cores))
	for _, r := range want {
		back[r.core] = append(back[r.core], r.rec)
	}
	if !reflect.DeepEqual(back, cores) {
		t.Fatal("interleaved records differ from the sources' records")
	}
}

func TestEmptyInterleaver(t *testing.T) {
	for _, srcs := range [][]Source{nil, sources(make([][]memtypes.Rec, 3), 1)} {
		if _, _, ok := NewInterleaver(srcs).Next(); ok {
			t.Fatalf("interleaver over %d empty sources yielded a record", len(srcs))
		}
	}
}
