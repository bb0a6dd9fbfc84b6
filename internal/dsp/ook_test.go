package dsp

import (
	"math"
	"testing"
)

func TestOOKBerPaperAnchors(t *testing.T) {
	// Sec 7.1: 15.8 dB -> 0.1%, 14 dB -> 0.6%, 10 dB -> 5.7%, 15 dB -> 0.3%.
	cases := []struct {
		snrDB float64
		ber   float64
		tol   float64
	}{
		{15.8, 0.001, 0.0005},
		{14.0, 0.006, 0.002},
		{10.0, 0.057, 0.01},
		{15.0, 0.003, 0.001},
	}
	for _, c := range cases {
		got := OOKBerFromDB(c.snrDB)
		if math.Abs(got-c.ber) > c.tol {
			t.Errorf("BER(%g dB) = %g, want %g +/- %g", c.snrDB, got, c.ber, c.tol)
		}
	}
}

func TestOOKBerMonotone(t *testing.T) {
	prev := 1.0
	for snr := 0.0; snr < 40; snr += 0.5 {
		b := OOKBerFromDB(snr)
		if b > prev {
			t.Fatalf("BER increased with SNR at %g dB: %g > %g", snr, b, prev)
		}
		prev = b
	}
}

func TestOOKBerDegenerate(t *testing.T) {
	if got := OOKBer(0); got != 0.5 {
		t.Errorf("BER(0) = %g, want 0.5", got)
	}
	if got := OOKBer(-1); got != 0.5 {
		t.Errorf("BER(-1) = %g, want 0.5", got)
	}
}

func TestDecodingSNR(t *testing.T) {
	if got := DecodingSNR(3, 1, 1); got != 4 {
		t.Errorf("DecodingSNR(3, 1, 1) = %g, want 4", got)
	}
	if got := DecodingSNR(1, 1, 0); got != 0 {
		t.Errorf("DecodingSNR equal means, zero sigma = %g, want 0", got)
	}
	if got := DecodingSNR(2, 1, 0); !math.IsInf(got, 1) {
		t.Errorf("DecodingSNR separated means, zero sigma = %g, want +Inf", got)
	}
}

func TestDBHelpers(t *testing.T) {
	if got := DB(100); math.Abs(got-20) > 1e-12 {
		t.Errorf("DB(100) = %g, want 20", got)
	}
	if got := FromDB(30); math.Abs(got-1000) > 1e-9 {
		t.Errorf("FromDB(30) = %g, want 1000", got)
	}
	if !math.IsInf(DB(0), -1) || !math.IsInf(DB(-1), -1) {
		t.Error("DB of non-positive input should be -Inf")
	}
}

func TestStatsHelpers(t *testing.T) {
	x := []float64{4, 1, 3, 2}
	if m := Mean(x); m != 2.5 {
		t.Errorf("Mean = %g, want 2.5", m)
	}
	if v := Variance(x); math.Abs(v-1.25) > 1e-12 {
		t.Errorf("Variance = %g, want 1.25", v)
	}
	if s := StdDev(x); math.Abs(s-math.Sqrt(1.25)) > 1e-12 {
		t.Errorf("StdDev = %g", s)
	}
	if m := Median(x); m != 2.5 {
		t.Errorf("Median = %g, want 2.5", m)
	}
	if p := Percentile(x, 0); p != 1 {
		t.Errorf("P0 = %g, want 1", p)
	}
	if p := Percentile(x, 100); p != 4 {
		t.Errorf("P100 = %g, want 4", p)
	}
	if v, i := Max(x); v != 4 || i != 0 {
		t.Errorf("Max = %g at %d", v, i)
	}
	if v, i := Min(x); v != 1 || i != 1 {
		t.Errorf("Min = %g at %d", v, i)
	}
	if m := Mean(nil); m != 0 {
		t.Errorf("Mean(nil) = %g", m)
	}
	if v, i := Max(nil); v != 0 || i != -1 {
		t.Errorf("Max(nil) = %g, %d", v, i)
	}
	if v := Variance([]float64{1}); v != 0 {
		t.Errorf("Variance of singleton = %g", v)
	}
	// Empty input reads as "no signal", not 0 dBm.
	if p := Percentile(nil, 50); !math.IsInf(p, -1) {
		t.Errorf("Percentile(nil) = %g, want -Inf", p)
	}
	if m := Median(nil); !math.IsInf(m, -1) {
		t.Errorf("Median(nil) = %g, want -Inf", m)
	}
}
