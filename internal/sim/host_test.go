package sim_test

import (
	"testing"

	"hybridmem/internal/config"
	"hybridmem/internal/memtypes"
	"hybridmem/internal/sim"
	"hybridmem/internal/workload"
)

// TestHostReuseMatchesFreshHost: a host reset between runs of different
// memory-level parallelism gives each run the Result a new host gives,
// and once its core slots hold the largest MSHR heap it runs without
// allocating them again.
func TestHostReuseMatchesFreshHost(t *testing.T) {
	spec, _ := workload.ByName("mcf")
	sys := engineSys()
	var captured [config.Cores][]memtypes.Rec
	for i := range captured {
		s := workload.NewStream(spec, i, sys.Scale, sys.InstrPerCore, sys.Seed)
		var batch [64]memtypes.Rec
		for n := s.NextBatch(batch[:]); n > 0; n = s.NextBatch(batch[:]) {
			captured[i] = append(captured[i], batch[:n]...)
		}
	}
	srcs := make([]sim.Source, config.Cores)
	run := func(h *sim.Host, mlp int) sim.Result {
		for i := range srcs {
			srcs[i] = &sliceSource{captured[i]}
		}
		return sim.RunSourcesOn(h, "mcf", srcs, mlp, &stubMemory{}, nil, nil, sys, nil)
	}
	h := sim.NewHost(sys)
	for _, mlp := range []int{8, 1, 3, 8, 2} {
		h.Reset()
		if got, want := run(h, mlp), run(sim.NewHost(sys), mlp); got != want {
			t.Errorf("mlp %d: reused host gives %+v, a new one %+v", mlp, got, want)
		}
	}
	fresh := testing.AllocsPerRun(5, func() { run(sim.NewHost(sys), 4) })
	reused := testing.AllocsPerRun(5, func() { h.Reset(); run(h, 4) })
	// A new host allocates its LLC, the core slots and their times, and
	// one MSHR heap per core.
	if saved := fresh - reused; saved < config.Cores+2 {
		t.Errorf("a reused host allocated %v times per run, a new one %v: want at least %d fewer",
			reused, fresh, config.Cores+2)
	}
}
