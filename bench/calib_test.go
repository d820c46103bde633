package main

import (
	"math"
	"testing"
)

// The kernel runs inside the window whose allocations
// runtime.allocs_per_round counts, so it must not allocate.
func TestCalibrationKernelAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(10, func() { calibrate() }); n != 0 {
		t.Errorf("calibrate allocates %v times a run", n)
	}
}

func TestAtRefSpeed(t *testing.T) {
	if got := atRefSpeed(200, calibRefMs, calibRefMs); math.Abs(got-200) > 1e-9 {
		t.Errorf("an interval beside a kernel at the reference speed became %v", got)
	}
	// A host running the kernel 30% slower ran the interval 30% slower.
	if got := atRefSpeed(260, 1.2*calibRefMs, 1.4*calibRefMs); math.Abs(got-200) > 1e-9 {
		t.Errorf("260 ms at 1.3x the kernel time became %v, want 200", got)
	}
}
