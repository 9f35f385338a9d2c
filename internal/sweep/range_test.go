package sweep

import (
	"math"
	"strings"
	"testing"

	"chipletactuary/internal/system"
)

// TestAxisRangesRejectHostileBounds checks that the axis expanders
// return an error, and never panic or allocate without bound, for
// non-finite bounds and steps, for area ranges whose value count
// overflows an int or exceeds MaxAxisLen, for count ranges that go past
// system.MaxPartitionCount, and for steps finer than the spacing of
// float64 values; and that ranges at the limit still expand.
func TestAxisRangesRejectHostileBounds(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	areas := []struct {
		lo, hi, step float64
		want         string // error substring; "" expands
		n            int    // expected length when it expands
	}{
		{nan, 100, 1, "not finite", 0},
		{1, inf, 1, "not finite", 0},
		{1, 100, nan, "not finite", 0},
		{-inf, 100, 1, "not finite", 0},
		{1, 100, inf, "not finite", 0},
		{1, 100, -inf, "not finite", 0},
		{1e-300, 1e300, 1e-300, "more than", 0},
		{1, 1e300, 1, "more than", 0},
		{1, 1 << 20, 1, "", 1 << 20},
		{1, 1<<20 + 1, 1, "more than", 0},
		{1, 1 + 2e-16, 1e-17, "finer than", 0},
		{1e308, math.MaxFloat64, (math.MaxFloat64 - 1e308) * (1 + 5e-10), "overflows", 0},
		{1e308, math.MaxFloat64, 1e307, "", 8},
		{100, 300, 0, "must be positive", 0},
		{300, 100, 50, "inverted", 0},
		{100, 800, 50, "", 15},
		{50, 674.95, 0.05, "", 12500},
	}
	for _, c := range areas {
		axis, err := AreaRange(c.lo, c.hi, c.step)
		if c.want != "" {
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("AreaRange(%v, %v, %v) = %d values, %v; want an error containing %q",
					c.lo, c.hi, c.step, len(axis), err, c.want)
			}
			continue
		}
		if err != nil || len(axis) != c.n {
			t.Errorf("AreaRange(%v, %v, %v) = %d values, %v; want %d values", c.lo, c.hi, c.step, len(axis), err, c.n)
			continue
		}
		for i, v := range axis {
			if v != c.lo+float64(i)*c.step {
				t.Fatalf("AreaRange(%v, %v, %v)[%d] = %v, want lo + i·step", c.lo, c.hi, c.step, i, v)
			}
		}
	}

	counts := []struct {
		lo, hi int
		want   string
		n      int
	}{
		{1, math.MaxInt, "goes past", 0},
		{1, system.MaxPartitionCount, "", system.MaxPartitionCount},
		{1, system.MaxPartitionCount + 1, "goes past", 0},
		{system.MaxPartitionCount - 2, system.MaxPartitionCount, "", 3},
		{system.MaxPartitionCount, system.MaxPartitionCount, "", 1},
		{1, 1 << 20, "goes past", 0},
		{math.MaxInt - 1, math.MaxInt, "goes past", 0},
		{math.MaxInt, math.MaxInt, "goes past", 0},
		{0, 3, "sub-1", 0},
		{math.MinInt, -1, "sub-1", 0},
		{6, 2, "inverted", 0},
	}
	for _, c := range counts {
		axis, err := CountRange(c.lo, c.hi)
		if c.want != "" {
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("CountRange(%d, %d) = %d values, %v; want an error containing %q",
					c.lo, c.hi, len(axis), err, c.want)
			}
			continue
		}
		if err != nil || len(axis) != c.n || axis[0] != c.lo || axis[len(axis)-1] != c.hi {
			t.Errorf("CountRange(%d, %d) = %d values, %v; want %d values from lo to hi", c.lo, c.hi, len(axis), err, c.n)
		}
	}
}

// FuzzAreaRange checks that AreaRange never panics and that every
// axis it returns is non-empty, at most MaxAxisLen long, finite,
// strictly increasing, starts at lo, and is lo + i·step throughout.
func FuzzAreaRange(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, seed := range [][3]float64{
		{nan, 100, 1}, {1, nan, 1}, {1, 100, nan},
		{1, inf, 1}, {-inf, 100, 1}, {1, 100, inf},
		{1e-300, 1e300, 1e-300}, {1, 1e300, 1e-300},
		{100, 300, 0}, {100, 300, -5}, {300, 100, 50}, {0, 100, 50}, {-5, 100, 1},
		{100, 800, 50}, {50, 674.95, 0.05}, {100, 100, 1}, {1, 1 + 2e-16, 1e-17},
		{1e308, math.MaxFloat64, 1e307},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	f.Fuzz(func(t *testing.T, lo, hi, step float64) {
		axis, err := AreaRange(lo, hi, step)
		if err != nil {
			return
		}
		if len(axis) == 0 || len(axis) > MaxAxisLen {
			t.Fatalf("AreaRange(%v, %v, %v): %d values", lo, hi, step, len(axis))
		}
		if axis[0] != lo {
			t.Fatalf("AreaRange(%v, %v, %v) starts at %v", lo, hi, step, axis[0])
		}
		for i, v := range axis {
			if !finite(v) || v != lo+float64(i)*step || (i > 0 && !(v > axis[i-1])) {
				t.Fatalf("AreaRange(%v, %v, %v)[%d] = %v after %v", lo, hi, step, i, v, axis[max(i-1, 0)])
			}
		}
	})
}

// FuzzCountRange checks that CountRange never panics, that it accepts
// exactly the ranges with 1 ≤ lo ≤ hi ≤ system.MaxPartitionCount, and
// that every axis it returns counts up by one from lo to hi.
func FuzzCountRange(f *testing.F) {
	for _, seed := range [][2]int{
		{1, 8}, {1, 1}, {4, 1}, {0, 3}, {-5, 5}, {math.MinInt, math.MaxInt},
		{1, math.MaxInt}, {math.MaxInt - 2, math.MaxInt}, {1, 1 << 20}, {1, 1<<20 + 1},
		{1, system.MaxPartitionCount}, {1, system.MaxPartitionCount + 1},
		{system.MaxPartitionCount, system.MaxPartitionCount + 1}, {system.MaxPartitionCount + 1, math.MaxInt},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, lo, hi int) {
		axis, err := CountRange(lo, hi)
		if valid := 1 <= lo && lo <= hi && hi <= system.MaxPartitionCount; (err == nil) != valid {
			t.Fatalf("CountRange(%d, %d): error %v, want accepted = %v", lo, hi, err, valid)
		}
		if err != nil {
			return
		}
		if len(axis) == 0 || len(axis) > system.MaxPartitionCount || axis[0] != lo || axis[len(axis)-1] != hi {
			t.Fatalf("CountRange(%d, %d): %d values", lo, hi, len(axis))
		}
		for i, k := range axis {
			if k != lo+i {
				t.Fatalf("CountRange(%d, %d)[%d] = %d", lo, hi, i, k)
			}
		}
	})
}
