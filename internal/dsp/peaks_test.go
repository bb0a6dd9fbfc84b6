package dsp

import (
	"math"
	"testing"
)

func TestFindPeaksBasic(t *testing.T) {
	x := []float64{0, 1, 0, 0, 3, 0, 0, 2, 0}
	peaks := FindPeaks(x, 0.5, 1)
	if len(peaks) != 3 {
		t.Fatalf("got %d peaks, want 3: %+v", len(peaks), peaks)
	}
	// Sorted by descending value.
	if peaks[0].Index != 4 || peaks[1].Index != 7 || peaks[2].Index != 1 {
		t.Errorf("peak order = %d, %d, %d; want 4, 7, 1", peaks[0].Index, peaks[1].Index, peaks[2].Index)
	}
}

func TestFindPeaksMinHeight(t *testing.T) {
	x := []float64{0, 1, 0, 0, 3, 0}
	peaks := FindPeaks(x, 2, 1)
	if len(peaks) != 1 || peaks[0].Index != 4 {
		t.Fatalf("peaks = %+v, want single peak at 4", peaks)
	}
}

func TestFindPeaksMinSeparation(t *testing.T) {
	x := []float64{0, 5, 0, 4, 0, 0, 0, 0, 3, 0}
	peaks := FindPeaks(x, 0.5, 4)
	// The peak at 3 is within 4 samples of the taller peak at 1 and must be
	// suppressed; the peak at 8 survives.
	if len(peaks) != 2 {
		t.Fatalf("got %d peaks, want 2: %+v", len(peaks), peaks)
	}
	if peaks[0].Index != 1 || peaks[1].Index != 8 {
		t.Errorf("peaks at %d, %d; want 1, 8", peaks[0].Index, peaks[1].Index)
	}
}

func TestRefinePeakQuadratic(t *testing.T) {
	// Sample a parabola with vertex at 4.3: refined position should recover
	// it to high accuracy.
	vertex := 4.3
	x := make([]float64, 9)
	for i := range x {
		d := float64(i) - vertex
		x[i] = 10 - d*d
	}
	peaks := FindPeaks(x, 0, 1)
	if len(peaks) == 0 {
		t.Fatal("no peak found")
	}
	if math.Abs(peaks[0].Pos-vertex) > 1e-9 {
		t.Errorf("refined position = %g, want %g", peaks[0].Pos, vertex)
	}
	if math.Abs(peaks[0].Value-10) > 1e-9 {
		t.Errorf("refined value = %g, want 10", peaks[0].Value)
	}
}

func TestFindPeaksEmptyAndFlat(t *testing.T) {
	if p := FindPeaks(nil, 0, 1); len(p) != 0 {
		t.Errorf("peaks of nil = %+v", p)
	}
	if p := FindPeaks([]float64{1, 1, 1, 1}, 0, 1); len(p) != 0 {
		t.Errorf("peaks of flat = %+v", p)
	}
}

func TestMaxAround(t *testing.T) {
	x := []float64{1, 9, 2, 3, 8, 0}
	if got := MaxAround(x, 3, 1); got != 8 {
		t.Errorf("MaxAround(center=3, hw=1) = %g, want 8", got)
	}
	if got := MaxAround(x, 0, 2); got != 9 {
		t.Errorf("MaxAround(center=0, hw=2) = %g, want 9", got)
	}
	if got := MaxAround(x, 5, 0); got != 0 {
		t.Errorf("MaxAround(center=5, hw=0) = %g, want 0", got)
	}
}
