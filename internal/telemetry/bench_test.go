package telemetry

import (
	"testing"

	"hybridmem/internal/memtypes"
)

// retirePath mirrors the run loop's per-record telemetry sequence: the
// nil-guarded hook every retired record passes through, including its
// share of epoch-boundary flushes. A nil sampler is the disabled path
// every un-sampled run pays.
type retirePath struct {
	smp         *Sampler
	instr, next uint64
	mem         memtypes.MemStats
}

func newRetirePath(smp *Sampler) *retirePath {
	return &retirePath{smp: smp, next: smp.WindowInstr()}
}

func (p *retirePath) retire() {
	if p.smp != nil {
		p.smp.Latency(100)
		p.instr += 4
		p.mem.Requests++
		p.mem.FMReadBytes += 64
		if p.instr >= p.next {
			p.smp.Flush(p.instr, p.instr*2, p.instr/8, p.instr/16, &p.mem)
			w := p.smp.WindowInstr()
			p.next = p.instr - p.instr%w + w
		}
	}
}

// TestRetirePathAllocationFree pins the sampler's passivity on the hot
// path: the retire-path hook makes 0 allocations with the sampler nil
// and armed — the ring and window histogram are preallocated, and the
// armed run crosses many epoch boundaries.
func TestRetirePathAllocationFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		smp  *Sampler
	}{
		{"nil", nil},
		{"armed", New(Options{WindowInstr: 4096, MaxEpochs: 256})},
	} {
		p := newRetirePath(tc.smp)
		if allocs := testing.AllocsPerRun(100, func() {
			for i := 0; i < 1000; i++ {
				p.retire()
			}
		}); allocs != 0 {
			t.Errorf("%s sampler: %v allocs per 1000 retired records, want 0", tc.name, allocs)
		}
	}
}

// BenchmarkTelemetryOverhead measures the per-record cost the sampler
// adds to the simulation loop, disabled ("off") and armed ("on").
// TestRetirePathAllocationFree pins both at 0 allocs.
func BenchmarkTelemetryOverhead(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		p := newRetirePath(nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.retire()
		}
	})
	b.Run("on", func(b *testing.B) {
		p := newRetirePath(New(Options{WindowInstr: 4096, MaxEpochs: 256}))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.retire()
		}
	})
}
