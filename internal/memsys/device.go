// Package memsys models the two DRAM devices of the hybrid memory system:
// the 3D-stacked high-bandwidth near memory (HBM2) and the off-chip far
// memory (DDR4-3200). The model is event-driven rather than cycle-stepped:
// each access computes its start time from channel and bank availability,
// applies row-buffer timing (tCAS on a row hit, tRP+tRCD+tCAS on a miss)
// and burst occupancy, and advances the resource timestamps. This captures
// the bandwidth, latency and row-locality asymmetry between the devices —
// the properties the caching/migration policies under study exploit —
// without a per-cycle loop.
package memsys

import (
	"math/bits"

	"hybridmem/internal/memtypes"
)

// Config describes one DRAM device. All timing is expressed in CPU cycles
// (3.2 GHz), converted from the device parameters of Table 1.
type Config struct {
	Name            string
	Channels        int     // independent channels
	BanksPerChannel int     // banks per channel
	RowBytes        int     // row-buffer size per bank
	BytesPerCycle   float64 // peak data-bus bytes per CPU cycle, per channel
	TCAS            memtypes.Tick
	TRCD            memtypes.Tick
	TRP             memtypes.Tick
	InterleaveBytes int     // channel interleaving granularity
	RWPicoJPerBit   float64 // read/write + I/O energy, pJ per bit
	ActPreNanoJ     float64 // activate+precharge energy, nJ per activation
}

// HBM2Config returns the near-memory device of Table 1: HBM2 at 2 GHz,
// 8 channels of 128 bits, 8 banks, tCAS-tRCD-tRP 7-7-7 (2 GHz cycles),
// 6.4 pJ/bit access energy and 15 nJ activate energy.
func HBM2Config() Config {
	// 7 cycles at 2 GHz = 11.2 CPU cycles at 3.2 GHz.
	const t = memtypes.Tick(11)
	return Config{
		Name:            "HBM2",
		Channels:        8,
		BanksPerChannel: 8,
		RowBytes:        2048,
		// 128-bit channel at 2 Gb/s/pin: 32 GB/s = 10 B per CPU cycle.
		BytesPerCycle:   10.0,
		TCAS:            t,
		TRCD:            t,
		TRP:             t,
		InterleaveBytes: 256,
		RWPicoJPerBit:   6.4,
		ActPreNanoJ:     15,
	}
}

// DDR4Config returns the far-memory device of Table 1: DDR4-3200,
// 2 channels of 64 bits, 8 banks, tCAS-tRCD-tRP 22-22-22 (1.6 GHz command
// clock), 33 pJ/bit access energy and 15 nJ activate energy.
func DDR4Config() Config {
	// 22 cycles at 1.6 GHz = 44 CPU cycles at 3.2 GHz.
	const t = memtypes.Tick(44)
	return Config{
		Name:            "DDR4-3200",
		Channels:        2,
		BanksPerChannel: 8,
		RowBytes:        8192,
		// 64-bit channel at 3.2 GT/s: 25.6 GB/s = 8 B per CPU cycle.
		BytesPerCycle:   8.0,
		TCAS:            t,
		TRCD:            t,
		TRP:             t,
		InterleaveBytes: 256,
		RWPicoJPerBit:   33,
		ActPreNanoJ:     15,
	}
}

type bank struct {
	openRow int64 // -1: closed
	freeAt  memtypes.Tick
}

type channel struct {
	busFreeAt memtypes.Tick // demand-traffic cursor
	bgFreeAt  memtypes.Tick // background-traffic cursor (fills, migrations)
	banks     []bank
}

// Device is one DRAM device instance. It is not safe for concurrent use;
// the simulation driver serializes accesses in (approximate) time order.
type Device struct {
	cfg      Config
	channels []channel

	// Address mapping: New requires power-of-two channel count,
	// interleave granularity, row size and bank count, so the four
	// divisions per access are shifts and masks.
	ilvShift uint
	chMask   uint64
	rowShift uint
	bankMask uint64
	// burst64 memoizes the burst cycles of the dominant 64 B transfer,
	// computed by the exact expression burst() would evaluate.
	burst64 memtypes.Tick

	// Traffic and energy accounting. Traffic is the single source of
	// every byte count the simulator reports.
	Traffic     memtypes.Traffic
	Activations uint64
	Reads       uint64
	Writes      uint64
}

// New creates a device with all banks closed and idle. It panics unless
// the channel count, bank count, row size and interleave granularity are
// all positive powers of two.
func New(cfg Config) *Device {
	pow2 := func(v int) bool { return v > 0 && v&(v-1) == 0 }
	if !pow2(cfg.InterleaveBytes) || !pow2(cfg.Channels) || !pow2(cfg.RowBytes) || !pow2(cfg.BanksPerChannel) {
		panic("memsys: channels, banks, row size and interleave must be positive powers of two")
	}
	d := &Device{
		cfg:      cfg,
		ilvShift: uint(bits.TrailingZeros(uint(cfg.InterleaveBytes))),
		chMask:   uint64(cfg.Channels - 1),
		rowShift: uint(bits.TrailingZeros(uint(cfg.RowBytes))),
		bankMask: uint64(cfg.BanksPerChannel - 1),
	}
	d.channels = make([]channel, cfg.Channels)
	for i := range d.channels {
		d.channels[i].banks = make([]bank, cfg.BanksPerChannel)
		for b := range d.channels[i].banks {
			d.channels[i].banks[b].openRow = -1
		}
	}
	d.burst64 = memtypes.Tick(float64(64)/cfg.BytesPerCycle + 0.999)
	return d
}

// Reset returns the device to the state New left it in — every bank
// closed and idle, every counter zero — reusing its channel and bank
// arrays.
func (d *Device) Reset() {
	for i := range d.channels {
		ch := &d.channels[i]
		ch.busFreeAt, ch.bgFreeAt = 0, 0
		for b := range ch.banks {
			ch.banks[b] = bank{openRow: -1}
		}
	}
	d.Traffic = memtypes.Traffic{}
	d.Activations, d.Reads, d.Writes = 0, 0, 0
}

// locate resolves an address to its channel, bank and row.
func (d *Device) locate(addr memtypes.Addr) (*channel, *bank, int64) {
	a := uint64(addr)
	ch := &d.channels[(a>>d.ilvShift)&d.chMask]
	row := int64(a >> d.rowShift)
	return ch, &ch.banks[uint64(row)&d.bankMask], row
}

// burst returns the data-bus occupancy of a transfer, memoized for the
// dominant 64 B size.
func (d *Device) burst(bytes int) memtypes.Tick {
	if bytes == 64 {
		return d.burst64
	}
	return memtypes.Tick(float64(bytes)/d.cfg.BytesPerCycle + 0.999)
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Access performs a demand transfer of size bytes at addr starting no
// earlier than now and returns the completion time. Write transfers
// complete when the data has been accepted by the device. The call
// updates channel/bank availability, row-buffer state, and the
// traffic/energy counters.
func (d *Device) Access(now memtypes.Tick, addr memtypes.Addr, bytes int, write bool) memtypes.Tick {
	_, done := d.transfer(memtypes.Demand, now, addr, bytes, bytes, write, false)
	return done
}

// AccessAs is Access for a critical-path transfer of another class, such
// as a tag or remap-table read the request must wait for.
func (d *Device) AccessAs(cls memtypes.Class, now memtypes.Tick, addr memtypes.Addr, bytes int, write bool) memtypes.Tick {
	_, done := d.transfer(cls, now, addr, bytes, bytes, write, false)
	return done
}

// AccessBG performs a background transfer: cache fills, write-backs,
// migrations and metadata updates that a real memory controller schedules
// at lower priority than demand traffic. Background transfers queue
// behind both demand and earlier background work, but never delay demand
// accesses (which only observe the demand cursor). They update row-buffer
// state and all traffic/energy counters.
func (d *Device) AccessBG(cls memtypes.Class, now memtypes.Tick, addr memtypes.Addr, bytes int, write bool) memtypes.Tick {
	_, done := d.transfer(cls, now, addr, bytes, bytes, write, true)
	return done
}

// AccessCriticalFirst performs a demand read of bytes at addr that
// returns the demanded critical chunk early: the access latency is
// charged once, the critical bytes complete first, and the channel stays
// occupied for the full burst (critical-word-first fills). It returns the
// completion times of the critical chunk and of the whole transfer.
func (d *Device) AccessCriticalFirst(now memtypes.Tick, addr memtypes.Addr, bytes, critical int) (criticalDone, done memtypes.Tick) {
	if critical <= 0 || critical > bytes {
		critical = bytes
	}
	return d.transfer(memtypes.Demand, now, addr, bytes, critical, false, false)
}

// transfer moves bytes at addr as traffic class cls, on the demand cursor
// or (bg) the background one, and returns when the first critical bytes
// and the whole transfer complete.
func (d *Device) transfer(cls memtypes.Class, now memtypes.Tick, addr memtypes.Addr, bytes, critical int, write, bg bool) (criticalDone, done memtypes.Tick) {
	if bytes <= 0 {
		return now, now
	}
	ch, bk, row := d.locate(addr)

	start := max(now, ch.busFreeAt, bk.freeAt)
	if bg {
		start = max(start, ch.bgFreeAt)
	}
	access := d.cfg.TCAS
	if bk.openRow != row {
		access = d.cfg.TRP + d.cfg.TRCD + d.cfg.TCAS
		bk.openRow = row
		d.Activations++
	}
	burst := d.burst(bytes)
	done = start + access + burst

	// The data bus is occupied for the burst; command/CAS phases of
	// other banks may overlap with it.
	if bg {
		ch.bgFreeAt = start + burst
	} else {
		ch.busFreeAt = start + burst
	}
	bk.freeAt = done

	if write {
		d.Traffic[cls].Write += uint64(bytes)
		d.Writes++
	} else {
		d.Traffic[cls].Read += uint64(bytes)
		d.Reads++
	}
	criticalDone = done
	if critical < bytes {
		criticalDone = start + access + d.burst(critical)
	}
	return criticalDone, done
}

// WithTraffic sets the byte counts of st from the devices a design runs
// on, nm or fm nil for a device it lacks, and returns st: the per-class
// counters, the totals derived from them and MetaNMBytes (the NM
// metadata class). Designs return it from their Stats method, so the
// devices are the only source of byte counts.
func WithTraffic(st *memtypes.MemStats, nm, fm *Device) *memtypes.MemStats {
	st.NM, st.FM = memtypes.Traffic{}, memtypes.Traffic{}
	if nm != nil {
		st.NM = nm.Traffic
	}
	if fm != nil {
		st.FM = fm.Traffic
	}
	n, f := st.NM.Total(), st.FM.Total()
	st.NMReadBytes, st.NMWriteBytes = n.Read, n.Write
	st.FMReadBytes, st.FMWriteBytes = f.Read, f.Write
	st.MetaNMBytes = st.NM[memtypes.Metadata].Sum()
	return st
}

// DynamicEnergyNanoJ returns the dynamic energy consumed so far:
// read/write+I/O energy proportional to bits moved plus activate/precharge
// energy per activation (Table 1).
func (d *Device) DynamicEnergyNanoJ() float64 {
	t := d.Traffic.Total()
	bits := float64(t.Read+t.Write) * 8
	return bits*d.cfg.RWPicoJPerBit/1000 + float64(d.Activations)*d.cfg.ActPreNanoJ
}
