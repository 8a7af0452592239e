package hm

import (
	"context"
	"testing"
)

func TestSpecValidate(t *testing.T) {
	good := DefaultSpec()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	mut := func(f func(*SystemSpec)) SystemSpec {
		s := DefaultSpec()
		f(&s)
		return s
	}
	bad := []SystemSpec{
		mut(func(s *SystemSpec) { s.PageSize = 0 }),
		mut(func(s *SystemSpec) { s.LLCBytes = -1 }),
		mut(func(s *SystemSpec) { s.Tiers[DRAM].CapacityBytes = 0 }),
		mut(func(s *SystemSpec) { s.Tiers[PM].ReadLatencyNs = 0 }),
		mut(func(s *SystemSpec) { s.Tiers[PM].WriteLatencyNs = -1 }),
		mut(func(s *SystemSpec) { s.Tiers[DRAM].BandwidthGBs = 0 }),
		mut(func(s *SystemSpec) { s.Tiers[PM].WriteFactor = 0.5 }),
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("bad spec %d accepted", i)
		}
		// The engine surfaces the same error instead of hanging.
		m := NewMemory(s)
		eng := &Engine{Mem: m, StepSec: 0.001}
		if _, err := eng.Run(context.Background(), []TaskWork{{Name: "t"}}); err == nil {
			t.Fatalf("engine accepted bad spec %d", i)
		}
	}
}
