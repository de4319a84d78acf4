package sim_test

// Accounting identities of the simulated memory system, checked for
// every registered design family: the devices are the only source of
// byte counts, so every derived view (the Result's totals, its
// per-class split, the telemetry epochs) must reconcile with them, and
// the epochs partition the run's retired instructions, cycles and LLC
// traffic.

import (
	"testing"

	"hybridmem/internal/config"
	"hybridmem/internal/design"
	"hybridmem/internal/memtypes"
	"hybridmem/internal/sim"
	"hybridmem/internal/telemetry"
	"hybridmem/internal/workload"
)

func TestAccountingIdentities(t *testing.T) {
	sys := config.Scaled(config.DefaultScale, 4)
	sys.InstrPerCore = 40_000
	sys.Seed = 5
	for _, info := range design.AllInfos() {
		name := info.SampleName()
		spec, err := design.Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, wl := range []string{"lbm", "mcf", "omnetpp"} {
			wspec, _ := workload.ByName(wl)
			ms, nm, fm, err := spec.Build(sys)
			if err != nil {
				t.Fatal(err)
			}
			smp := telemetry.New(telemetry.Options{WindowInstr: 32768})
			res := sim.RunOn(sim.NewHost(sys), wspec, ms, nm, fm, sys, smp)
			checkAccounting(t, name+"/"+wl, res, smp.Series())
		}
	}
}

func checkAccounting(t *testing.T, run string, res sim.Result, ser *telemetry.Series) {
	t.Helper()
	m := res.Mem
	if m.Requests == 0 {
		t.Fatalf("%s: no memory requests", run)
	}
	if m.ServedNM+m.ServedFM != m.Requests {
		t.Errorf("%s: served NM %d + FM %d != requests %d", run, m.ServedNM, m.ServedFM, m.Requests)
	}
	// Every request moves at least one 64 B demand transfer on the device
	// that served it.
	if got := m.NM[memtypes.Demand].Sum(); got < 64*m.ServedNM {
		t.Errorf("%s: %d NM demand bytes for %d NM-served requests", run, got, m.ServedNM)
	}
	if got := m.FM[memtypes.Demand].Sum(); got < 64*m.ServedFM {
		t.Errorf("%s: %d FM demand bytes for %d FM-served requests", run, got, m.ServedFM)
	}
	if m.FM[memtypes.Metadata].Sum() != 0 {
		t.Errorf("%s: metadata traffic on far memory: %+v", run, m.FM[memtypes.Metadata])
	}
	var classes uint64
	for c := memtypes.Class(0); c < memtypes.NumClasses; c++ {
		classes += m.ClassBytes(c)
	}
	if total := m.NMTraffic() + m.FMTraffic(); classes != total {
		t.Errorf("%s: classes sum to %d bytes, device totals to %d", run, classes, total)
	}
	if m.UsedBytes > m.FetchedBytes {
		t.Errorf("%s: used %d of %d fetched bytes", run, m.UsedBytes, m.FetchedBytes)
	}

	// The epochs partition the run: their deltas sum to the totals.
	var e telemetry.Epoch
	for _, ep := range ser.Epochs {
		if got := ep.DemandBytes + ep.FillBytes + ep.WritebackBytes + ep.MigrationBytes + ep.MetaNMBytes; got != ep.NMTrafficBytes+ep.FMTrafficBytes {
			t.Errorf("%s: epoch %d classes %d != traffic %d", run, ep.Index, got, ep.NMTrafficBytes+ep.FMTrafficBytes)
		}
		if ep.DemandBytes < 64*ep.Requests {
			t.Errorf("%s: epoch %d moved %d demand bytes for %d requests", run, ep.Index, ep.DemandBytes, ep.Requests)
		}
		e.Instr += ep.Instr
		e.LLCAccesses += ep.LLCAccesses
		e.LLCMisses += ep.LLCMisses
		e.Requests += ep.Requests
		e.NMTrafficBytes += ep.NMTrafficBytes
		e.FMTrafficBytes += ep.FMTrafficBytes
		e.MetaNMBytes += ep.MetaNMBytes
		e.DemandBytes += ep.DemandBytes
		e.FillBytes += ep.FillBytes
		e.WritebackBytes += ep.WritebackBytes
		e.MigrationBytes += ep.MigrationBytes
		e.Migrations += ep.Migrations
		e.Evictions += ep.Evictions
	}
	want := telemetry.Epoch{
		Instr:          res.Instructions,
		LLCAccesses:    res.LLCAccesses,
		LLCMisses:      res.LLCMisses,
		Requests:       m.Requests,
		NMTrafficBytes: m.NMTraffic(),
		FMTrafficBytes: m.FMTraffic(),
		MetaNMBytes:    m.MetaNMBytes,
		DemandBytes:    m.ClassBytes(memtypes.Demand),
		FillBytes:      m.ClassBytes(memtypes.Fill),
		WritebackBytes: m.ClassBytes(memtypes.Writeback),
		MigrationBytes: m.ClassBytes(memtypes.Migration),
		Migrations:     m.Migrations,
		Evictions:      m.Evictions,
	}
	if ser.EpochsDropped != 0 || e != want {
		t.Errorf("%s: epochs sum to %+v (%d dropped), run totals %+v", run, e, ser.EpochsDropped, want)
	}
	// The last epoch closes exactly where the run ends.
	if len(ser.Epochs) == 0 {
		t.Fatalf("%s: no epochs", run)
	}
	if last := ser.Epochs[len(ser.Epochs)-1]; last.EndInstr != res.Instructions || last.EndCycle != uint64(res.Cycles) {
		t.Errorf("%s: last epoch ends at instr %d cycle %d, run at instr %d cycle %d",
			run, last.EndInstr, last.EndCycle, res.Instructions, res.Cycles)
	}
}
