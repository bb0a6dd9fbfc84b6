package dsp

import (
	"math"
	"testing"
)

func TestWindowNames(t *testing.T) {
	cases := map[Window]string{
		Rectangular: "rectangular",
		Hann:        "hann",
		Hamming:     "hamming",
		Blackman:    "blackman",
		Window(99):  "unknown",
	}
	for w, want := range cases {
		if got := w.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", w, got, want)
		}
	}
}

func TestWindowSymmetry(t *testing.T) {
	for _, w := range []Window{Hann, Hamming, Blackman} {
		c := w.Coefficients(33)
		for i := range c {
			j := len(c) - 1 - i
			if math.Abs(c[i]-c[j]) > 1e-12 {
				t.Errorf("%v: coefficient %d (%g) != mirror %d (%g)", w, i, c[i], j, c[j])
			}
		}
	}
}

func TestWindowBounds(t *testing.T) {
	for _, w := range []Window{Rectangular, Hann, Hamming, Blackman} {
		for _, v := range w.Coefficients(64) {
			if v < -1e-12 || v > 1+1e-12 {
				t.Errorf("%v: coefficient %g out of [0, 1]", w, v)
			}
		}
	}
}

func TestHannEndpointsAndCenter(t *testing.T) {
	c := Hann.Coefficients(5)
	if math.Abs(c[0]) > 1e-12 || math.Abs(c[4]) > 1e-12 {
		t.Errorf("Hann endpoints = %g, %g, want 0", c[0], c[4])
	}
	if math.Abs(c[2]-1) > 1e-12 {
		t.Errorf("Hann center = %g, want 1", c[2])
	}
}

func TestRectangularIsAllOnes(t *testing.T) {
	for _, v := range Rectangular.Coefficients(10) {
		if v != 1 {
			t.Fatalf("rectangular coefficient = %g, want 1", v)
		}
	}
}

func TestHannCoherentGain(t *testing.T) {
	// The Hann coherent gain, the coefficient mean a Plan divides out,
	// tends to 0.5 for large n.
	if g := Mean(Hann.Coefficients(4096)); math.Abs(g-0.5) > 1e-3 {
		t.Errorf("Hann coherent gain = %g, want ~0.5", g)
	}
}

func TestApplyWindows(t *testing.T) {
	x := []float64{1, 1, 1, 1, 1}
	Hann.ApplyFloat(x)
	c := Hann.Coefficients(5)
	for i := range x {
		if math.Abs(x[i]-c[i]) > 1e-12 {
			t.Errorf("ApplyFloat[%d] = %g, want %g", i, x[i], c[i])
		}
	}
	y := []float64{2, 2, 2}
	Rectangular.ApplyFloat(y)
	for _, v := range y {
		if v != 2 {
			t.Errorf("rectangular ApplyFloat changed values: %v", y)
		}
	}
}

func TestCoefficientsEdgeCases(t *testing.T) {
	if c := Hann.Coefficients(0); c != nil {
		t.Errorf("Coefficients(0) = %v, want nil", c)
	}
	c := Blackman.Coefficients(1)
	if len(c) != 1 || c[0] != 1 {
		t.Errorf("Coefficients(1) = %v, want [1]", c)
	}
}
