package em

import (
	"math"
	"testing"
)

func TestWavelength(t *testing.T) {
	l := Wavelength(CenterFrequency)
	if math.Abs(l-0.0037948) > 1e-6 {
		t.Errorf("lambda(79 GHz) = %g m, want ~3.795 mm", l)
	}
	if Lambda79() != l {
		t.Error("Lambda79 differs from Wavelength(CenterFrequency)")
	}
	defer func() {
		if recover() == nil {
			t.Error("Wavelength(0) did not panic")
		}
	}()
	Wavelength(0)
}

func TestDBmConversions(t *testing.T) {
	if got := DBm(1); got != 30 {
		t.Errorf("DBm(1 W) = %g, want 30", got)
	}
	if got := DBm(0.001); math.Abs(got) > 1e-12 {
		t.Errorf("DBm(1 mW) = %g, want 0", got)
	}
	if got := FromDBm(0); math.Abs(got-0.001) > 1e-15 {
		t.Errorf("FromDBm(0) = %g, want 0.001", got)
	}
	if !math.IsInf(DBm(0), -1) {
		t.Error("DBm(0) should be -Inf")
	}
	for _, w := range []float64{1e-9, 1e-3, 2.5} {
		if back := FromDBm(DBm(w)); math.Abs(back-w) > 1e-12*w {
			t.Errorf("dBm round trip %g -> %g", w, back)
		}
	}
}

func TestDBRoundTrip(t *testing.T) {
	for _, x := range []float64{1e-6, 1, 42, 1e9} {
		if back := FromDB(DB(x)); math.Abs(back-x) > 1e-9*x {
			t.Errorf("dB round trip %g -> %g", x, back)
		}
	}
	if FromDBsm(DBsm(0.005)) != FromDB(DB(0.005)) {
		t.Error("DBsm should alias DB")
	}
}

func TestReceivedPowerMatchesDBForm(t *testing.T) {
	lambda := Lambda79()
	pt := FromDBm(12.0) // 12 dBm Tx
	gt := FromDB(9)
	gr := FromDB(55)
	sigma := FromDBsm(-23)
	d := 5.0
	lin := pt * gt * gr * lambda * lambda * sigma / (math.Pow(4*math.Pi, 3) * math.Pow(d, 4))
	dbm := ReceivedPowerDBm(12+9, 55, lambda, d, -23)
	if math.Abs(DBm(lin)-dbm) > 1e-9 {
		t.Errorf("linear form %g dBm vs dB form %g dBm", DBm(lin), dbm)
	}
}

func TestReceivedPowerFourthPowerLaw(t *testing.T) {
	lambda := Lambda79()
	p1 := ReceivedPowerDBm(0, 0, lambda, 2, 0)
	p2 := ReceivedPowerDBm(0, 0, lambda, 4, 0)
	if r := FromDB(p1 - p2); math.Abs(r-16) > 1e-9 {
		t.Errorf("doubling distance changed power by %g, want 16x", r)
	}
}

func TestReceivedPowerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ReceivedPowerDBm at d=0 did not panic")
		}
	}()
	ReceivedPowerDBm(0, 0, 0.004, 0, 0)
}

func TestTIRadarNoiseFloorMatchesPaper(t *testing.T) {
	// Sec 5.3: "the minimum RSS level is Pr = -62 dBm".
	fe := TIRadar()
	if nf := fe.NoiseFloorDBm(); math.Abs(nf-(-62)) > 0.5 {
		t.Errorf("TI noise floor = %g dBm, want ~-62 dBm", nf)
	}
	if g := fe.RxGainDB(); g != 55 {
		t.Errorf("TI Rx gain = %g dB, want 55 dB", g)
	}
}

func TestTIRadarMaxRangeMatchesPaper(t *testing.T) {
	// Sec 5.3: "the maximum achievable distance is d ~ 6.9 m" for the
	// -23 dBsm 32-array tag.
	fe := TIRadar()
	d := fe.MaxRange(TagRCS32StackDBsm, CenterFrequency)
	if math.Abs(d-6.9) > 0.3 {
		t.Errorf("TI max range = %g m, want ~6.9 m", d)
	}
}

func TestCommercialRadarMaxRangeMatchesPaper(t *testing.T) {
	// Sec 8: "a maximum distance of 52 m can be achieved".
	fe := CommercialRadar()
	d := fe.MaxRange(TagRCS32StackDBsm, CenterFrequency)
	if math.Abs(d-52) > 3 {
		t.Errorf("commercial max range = %g m, want ~52 m", d)
	}
}

func TestSNRAtRangeConsistentWithMaxRange(t *testing.T) {
	fe := TIRadar()
	dMax := fe.MaxRange(TagRCS32StackDBsm, CenterFrequency)
	if snr := fe.SNRAtRange(TagRCS32StackDBsm, CenterFrequency, dMax); math.Abs(snr) > 1e-9 {
		t.Errorf("SNR at max range = %g dB, want 0", snr)
	}
	if snr := fe.SNRAtRange(TagRCS32StackDBsm, CenterFrequency, dMax/2); math.Abs(snr-12.04) > 0.1 {
		t.Errorf("SNR at half max range = %g dB, want ~12 dB", snr)
	}
}

func TestSNRAtRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SNRAtRange at d=0 did not panic")
		}
	}()
	TIRadar().SNRAtRange(-23, CenterFrequency, 0)
}
