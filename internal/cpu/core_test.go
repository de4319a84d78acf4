package cpu

import (
	"testing"

	"hybridmem/internal/memtypes"
)

func TestComputeThroughput(t *testing.T) {
	c := New(8)
	c.AdvanceCompute(400)
	if c.Time != 100 {
		t.Fatalf("400 instrs at width 4 took %d cycles, want 100", c.Time)
	}
	if c.Instructions != 400 {
		t.Fatalf("retired %d, want 400", c.Instructions)
	}
}

func TestComputeRemainderAccumulates(t *testing.T) {
	c := New(8)
	for i := 0; i < 4; i++ {
		c.AdvanceCompute(1) // 4 × 1 instr = 1 cycle total
	}
	if c.Time != 1 {
		t.Fatalf("4 single instructions took %d cycles, want 1", c.Time)
	}
}

func TestMissesOverlapUpToMLP(t *testing.T) {
	c := New(4)
	// 4 misses all completing at cycle 100: no stall issuing them.
	for i := 0; i < 4; i++ {
		c.StallForMiss(100)
	}
	if c.Time != 0 {
		t.Fatalf("core stalled at %d while MLP available", c.Time)
	}
	// The 5th miss must wait for the oldest outstanding one.
	c.StallForMiss(200)
	if c.Time != 100 {
		t.Fatalf("5th miss stalled to %d, want 100", c.Time)
	}
}

func TestSingleMLPSerializes(t *testing.T) {
	c := New(1)
	c.StallForMiss(50)
	c.StallForMiss(120)
	if c.Time != 50 {
		t.Fatalf("second miss issued at %d, want 50", c.Time)
	}
	c.DrainMisses()
	if c.Time != 120 {
		t.Fatalf("drain ended at %d, want 120", c.Time)
	}
}

func TestDrainTakesMaxOutstanding(t *testing.T) {
	c := New(4)
	for _, d := range []memtypes.Tick{30, 90, 60, 10} {
		c.StallForMiss(d)
	}
	c.DrainMisses()
	if c.Time != 90 {
		t.Fatalf("drain ended at %d, want 90", c.Time)
	}
}

func TestDegenerateParamsPanic(t *testing.T) {
	for _, mlp := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", mlp)
				}
			}()
			New(mlp)
		}()
	}
}

func TestWriteBufferBackpressure(t *testing.T) {
	c := New(4)
	// Fill all 16 write-buffer entries with writes completing at 1000.
	for i := 0; i < 16; i++ {
		c.StallForWrite(1000)
	}
	if c.Time != 0 {
		t.Fatalf("core stalled at %d with write-buffer space", c.Time)
	}
	// The 17th write must wait for the oldest entry.
	c.StallForWrite(2000)
	if c.Time != 1000 {
		t.Fatalf("17th write stalled to %d, want 1000", c.Time)
	}
}

func TestWritesDoNotBlockReads(t *testing.T) {
	c := New(2)
	for i := 0; i < 10; i++ {
		c.StallForWrite(500) // well within the buffer
	}
	c.StallForMiss(100)
	if c.Time != 0 {
		t.Fatalf("read miss stalled at %d due to buffered writes", c.Time)
	}
}
