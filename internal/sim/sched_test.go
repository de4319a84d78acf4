package sim_test

// Scheduler edge cases against the linear-scan reference loop, and a
// benchmark of the run loop alone: cores, scheduler and LLC in front of
// a memory system that does no work.

import (
	"fmt"
	"testing"

	"hybridmem/internal/config"
	"hybridmem/internal/design"
	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
	"hybridmem/internal/sim"
	"hybridmem/internal/workload"
)

// sliceSource yields a fixed slice of records.
type sliceSource struct{ recs []memtypes.Rec }

func (s *sliceSource) NextBatch(dst []memtypes.Rec) int {
	n := copy(dst, s.recs)
	s.recs = s.recs[n:]
	return n
}

// stubMemory serves every request after a fixed latency and counts it.
type stubMemory struct{ stats memtypes.MemStats }

const stubLatency = 200

func (m *stubMemory) Name() string { return "stub" }

func (m *stubMemory) Access(now memtypes.Tick, _ memtypes.Addr, _ bool) memtypes.Tick {
	m.stats.Requests++
	return now + stubLatency
}

func (m *stubMemory) Finish(memtypes.Tick)      {}
func (m *stubMemory) Stats() *memtypes.MemStats { return &m.stats }

// edgeRecords builds one core's records: n accesses, the first lead of
// them after 2^62 instructions each and the rest after gap, with every
// third access a write. All cores walk the same lines, so the first core
// to reach a line misses and the rest hit: the order the scheduler picks
// cores in decides which core's MSHRs fill and stall, even in front of a
// fixed-latency memory. Cores given the same gaps tie until one stalls.
func edgeRecords(n, lead int, gap uint64) []memtypes.Rec {
	recs := make([]memtypes.Rec, n)
	for k := range recs {
		recs[k] = memtypes.Rec{Gap: gap, Addr: memtypes.Addr(k) * memtypes.CPULineBytes, Write: k%3 == 2}
		if k < lead {
			recs[k].Gap = 1 << 62
		}
	}
	return recs
}

// TestSchedulerEdgeCases runs hand-built sources for 8 cores through
// RunSources and the reference loop, in front of a fixed-latency memory
// and of HYBRID2: empty cores, cores that end one record before, on and
// after a batch edge, a long core, equal gaps that tie core times, and
// one core whose gaps of 2^62 take its time past 2^63, near the top of
// the Tick range. Each layout puts the empty and the large-gap cores at
// other positions of the scheduler's live prefix. With a lead-in, every
// core first retires 8 records of 2^62 instructions, so live core times
// straddle 2^63 while they are compared.
func TestSchedulerEdgeCases(t *testing.T) {
	const big = -1 // the large-gap core: 15 records, time ~15·2^60
	layouts := []struct {
		lens [config.Cores]int
		lead int
	}{
		{[config.Cores]int{big, 0, 1, 63, 64, 65, 10_000, 0}, 0},
		{[config.Cores]int{0, 10_000, 65, 64, 63, 1, 0, big}, 0},
		{[config.Cores]int{64, 0, 10_000, big, 1, 0, 63, 65}, 8},
	}
	sys := engineSys()
	for li, l := range layouts {
		sources := func() []sim.Source {
			srcs := make([]sim.Source, config.Cores)
			for i, n := range l.lens {
				if n == big {
					srcs[i] = &sliceSource{edgeRecords(15, 15, 0)}
				} else {
					srcs[i] = &sliceSource{edgeRecords(n, l.lead, 8)}
				}
			}
			return srcs
		}
		builds := []struct {
			name  string
			build func() (memtypes.MemorySystem, *memsys.Device, *memsys.Device)
		}{
			{"stub", func() (memtypes.MemorySystem, *memsys.Device, *memsys.Device) {
				return &stubMemory{}, nil, nil
			}},
			{"HYBRID2", func() (memtypes.MemorySystem, *memsys.Device, *memsys.Device) {
				ms, nm, fm, err := design.Build("HYBRID2", sys)
				if err != nil {
					t.Fatal(err)
				}
				return ms, nm, fm
			}},
		}
		for _, bc := range builds {
			t.Run(fmt.Sprintf("layout%d/%s", li, bc.name), func(t *testing.T) {
				ms, nm, fm := bc.build()
				want := referenceRunSources("edges", sources(), 4, ms, nm, fm, sys)
				ms, nm, fm = bc.build()
				got := sim.RunSources("edges", sources(), 4, ms, nm, fm, sys)
				if got != want {
					t.Errorf("run loop diverges from reference:\n got %+v\nwant %+v", got, want)
				}
				if got.Cycles < 1<<63 {
					t.Errorf("cycles %d: the large-gap core never passed 2^63", got.Cycles)
				}
			})
		}
	}
}

// BenchmarkRunLoopStub times the run loop on lbm and mcf records
// captured in memory (8 cores, 200k instructions per core) in front of
// a fixed-latency memory, so record generation and the designs stay out
// of the measurement. It reports ns/rec, the time per simulated record.
func BenchmarkRunLoopStub(b *testing.B) {
	sys := engineSys()
	sys.InstrPerCore = 200_000
	for _, wl := range []string{"lbm", "mcf"} {
		spec, ok := workload.ByName(wl)
		if !ok {
			b.Fatalf("workload %s missing", wl)
		}
		captured := make([][]memtypes.Rec, config.Cores)
		recs := 0
		for i := range captured {
			s := workload.NewStream(spec, i, sys.Scale, sys.InstrPerCore, sys.Seed)
			var batch [64]memtypes.Rec
			for n := s.NextBatch(batch[:]); n > 0; n = s.NextBatch(batch[:]) {
				captured[i] = append(captured[i], batch[:n]...)
			}
			recs += len(captured[i])
		}
		mlp := sim.MLPFor(spec)
		b.Run(wl, func(b *testing.B) {
			srcs := make([]sim.Source, config.Cores)
			var res sim.Result
			for b.Loop() {
				for i := range srcs {
					srcs[i] = &sliceSource{captured[i]}
				}
				res = sim.RunSources(wl, srcs, mlp, &stubMemory{}, nil, nil, sys)
			}
			if res.Instructions == 0 {
				b.Fatal("empty run")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(recs), "ns/rec")
		})
	}
}
