package workload

import (
	"math"

	"hybridmem/internal/memtypes"
)

// GiB is one binary gigabyte.
const GiB = 1 << 30

const lineBytes = memtypes.CPULineBytes

// Stream produces one core's memory-access trace: a sequence of
// (instruction gap, address, is-write) records. Streams are deterministic
// for a given (spec, core, scale, seed) and allocation-free per record.
type Stream struct {
	spec  Spec
	rng   uint64
	scale int

	regionBase memtypes.Addr // this core's region
	regionLen  uint64
	hotLen     uint64
	hotBase    uint64 // offset within region, moves across phases

	cur       uint64 // current offset within region (line aligned)
	runLeft   int    // remaining lines in the current sequential run
	gapBase   uint64 // mean instructions between accesses
	instrLeft int64  // remaining instruction budget
	phaseLen  int64  // instructions per phase
	phaseLeft int64
	phase     int

	// Integer thresholds equivalent to the spec's float probabilities:
	// randN(1<<20) < thresh  ⟺  float64(randN(1<<20))/(1<<20) < p.
	// Scaling by a power of two is exact in float64, so the hot loop can
	// compare integers without changing a single draw.
	hotThresh   uint64
	runThresh   uint64
	writeThresh uint64
}

// thresh20 returns the integer t making "x < t" (for x in [0,1<<20))
// equivalent to "float64(x)/(1<<20) < p": both sides of the float compare
// scale exactly by 2^20, so t = ceil(p * 2^20).
func thresh20(p float64) uint64 {
	t := math.Ceil(p * (1 << 20))
	if t <= 0 {
		return 0
	}
	return uint64(t)
}

// NewStream builds the trace stream for one core of an 8-core run.
// instrBudget is the per-core instruction count; scale divides the paper's
// capacities (footprints, caches) as described in DESIGN.md §6.
func NewStream(spec Spec, core, scale int, instrBudget uint64, seed uint64) *Stream {
	s := &Stream{
		spec:      spec,
		rng:       seed*0x9E3779B97F4A7C15 + uint64(core+1)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB,
		scale:     scale,
		instrLeft: int64(instrBudget),
	}
	if s.rng == 0 {
		s.rng = 1
	}

	fp := uint64(spec.PaperFootprintGB * GiB / float64(scale))
	const minRegion = 64 * 1024
	if spec.Kind == MP {
		per := fp / 8
		if per < minRegion {
			per = minRegion
		}
		per &^= lineBytes - 1
		s.regionBase = memtypes.Addr(uint64(core) * per)
		s.regionLen = per
	} else {
		if fp < minRegion {
			fp = minRegion
		}
		fp &^= lineBytes - 1
		s.regionBase = 0
		s.regionLen = fp
	}

	s.hotLen = uint64(float64(s.regionLen)*spec.HotFrac) &^ (lineBytes - 1)
	if s.hotLen < lineBytes {
		s.hotLen = lineBytes
	}
	s.gapBase = uint64(1000 / spec.APKI)
	if s.gapBase == 0 {
		s.gapBase = 1
	}
	phases := spec.Phases
	if phases < 1 {
		phases = 1
	}
	s.phaseLen = int64(instrBudget) / int64(phases)
	if s.phaseLen == 0 {
		s.phaseLen = int64(instrBudget)
	}
	s.phaseLeft = s.phaseLen
	s.hotThresh = thresh20(spec.HotProb)
	mean := spec.SeqRun
	if mean < 1 {
		mean = 1
	}
	s.runThresh = thresh20(1 - 1/mean)
	s.writeThresh = thresh20(spec.WriteFrac)
	s.placeHot()
	s.newRun()
	return s
}

// xorshift64* PRNG: fast, deterministic, no allocation.
func (s *Stream) next64() uint64 {
	x := s.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	s.rng = x
	return x * 0x2545F4914F6CDD1D
}

// randN returns a uniform value in [0, n).
func (s *Stream) randN(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return s.next64() % n
}

func (s *Stream) placeHot() {
	span := s.regionLen - s.hotLen
	if span == 0 {
		s.hotBase = 0
		return
	}
	// Deterministic per-phase placement: rotate by a fixed odd fraction so
	// consecutive phases overlap little (working-set change).
	s.hotBase = (uint64(s.phase) * (s.regionLen*2/5 + lineBytes)) % span
	s.hotBase &^= lineBytes - 1
}

func (s *Stream) newRun() {
	// Pick the next run start: hot set with probability HotProb, the
	// whole region otherwise. Within the hot set, picks concentrate on
	// nested inner cores (25% to hot/64, 25% to hot/8, 50% spread over
	// the full hot set) — real workloads exhibit steep Zipf-like reuse
	// skew, not uniform hot-set access, and the evaluated policies (small
	// staging caches in particular) depend on it.
	if s.spec.HotProb > 0 && s.randN(1<<20) < s.hotThresh {
		span := s.hotLen
		switch s.randN(4) {
		case 0:
			span = s.hotLen / 64
		case 1:
			span = s.hotLen / 8
		}
		if span < lineBytes {
			span = lineBytes
		}
		s.cur = s.hotBase + s.randN(span/lineBytes)*lineBytes
	} else {
		s.cur = s.randN(s.regionLen/lineBytes) * lineBytes
	}
	// Geometric run length with mean SeqRun.
	run := 1
	for s.randN(1<<20) < s.runThresh && run < 1024 {
		run++
	}
	s.runLeft = run
}

// next returns the next record: gap non-memory instructions followed by a
// 64 B access at addr. ok is false once the instruction budget is spent.
func (s *Stream) next() (gap uint64, addr memtypes.Addr, write bool, ok bool) {
	if s.instrLeft <= 0 {
		return 0, 0, false, false
	}
	// Gap with ±50% jitter around the mean.
	gap = s.gapBase/2 + s.randN(s.gapBase+1)
	spent := int64(gap) + 1
	s.instrLeft -= spent
	s.phaseLeft -= spent
	if s.phaseLeft <= 0 {
		s.phase++
		s.phaseLeft = s.phaseLen
		s.placeHot()
		s.newRun()
	}

	if s.runLeft <= 0 {
		s.newRun()
	}
	addr = s.regionBase + memtypes.Addr(s.cur)
	s.runLeft--
	s.cur += lineBytes
	if s.cur >= s.regionLen {
		s.cur = 0
	}
	write = s.randN(1<<20) < s.writeThresh
	return gap, addr, write, true
}

// NextBatch implements memtypes.Source: it fills dst with up to len(dst)
// records and returns how many it produced. A short count means the
// instruction budget ran out. Each record is drawn on its own, so the
// stream does not depend on the batch sizes.
func (s *Stream) NextBatch(dst []memtypes.Rec) int {
	n := 0
	for n < len(dst) {
		gap, addr, write, ok := s.next()
		if !ok {
			break
		}
		dst[n] = memtypes.Rec{Gap: gap, Addr: addr, Write: write}
		n++
	}
	return n
}

// Footprint returns the total bytes this stream can touch (its region).
func (s *Stream) Footprint() uint64 { return s.regionLen }
