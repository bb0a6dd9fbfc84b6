package track

import (
	"math"
	"math/rand"
	"testing"

	"ros/internal/dsp"
	"ros/internal/geom"
)

// RelativeErrorOf measures the realized drift of an estimated trajectory:
// the final position error divided by the distance traveled.
func RelativeErrorOf(truth, est []geom.Vec3) float64 {
	if len(truth) < 2 || len(truth) != len(est) {
		return 0
	}
	dist := 0.0
	for i := 1; i < len(truth); i++ {
		dist += truth[i].Sub(truth[i-1]).Norm()
	}
	if dist == 0 {
		return 0
	}
	return truth[len(truth)-1].Sub(est[len(est)-1]).Norm() / dist
}

func straightLine(n int, step float64) []geom.Vec3 {
	out := make([]geom.Vec3, n)
	for i := range out {
		out[i] = geom.Vec3{X: float64(i) * step, Y: 3}
	}
	return out
}

func TestZeroErrorIsExact(t *testing.T) {
	truth := straightLine(100, 0.01)
	est, err := Tracker{}.Estimate(truth, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth {
		if est[i] != truth[i] {
			t.Fatalf("frame %d drifted with zero error", i)
		}
	}
}

func TestDriftMagnitudeTracksSetting(t *testing.T) {
	truth := straightLine(2000, 0.01) // 20 m traveled
	for _, rel := range []float64{0.02, 0.06, 0.10} {
		// Average the realized drift across seeds (it is a random
		// variable of the same order as the setting).
		var drifts []float64
		for seed := int64(0); seed < 40; seed++ {
			est, err := Tracker{RelativeError: rel}.Estimate(truth, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			drifts = append(drifts, RelativeErrorOf(truth, est))
		}
		mean := dsp.Mean(drifts)
		if mean < rel*0.6 || mean > rel*1.4 {
			t.Errorf("setting %g: mean realized drift %g out of range", rel, mean)
		}
	}
}

func TestDriftGrowsWithSetting(t *testing.T) {
	truth := straightLine(2000, 0.01)
	avg := func(rel float64) float64 {
		var sum float64
		for seed := int64(0); seed < 40; seed++ {
			est, _ := Tracker{RelativeError: rel}.Estimate(truth, rand.New(rand.NewSource(seed)))
			sum += RelativeErrorOf(truth, est)
		}
		return sum / 40
	}
	lo, hi := avg(0.02), avg(0.10)
	if hi <= lo {
		t.Errorf("drift did not grow with setting: %g vs %g", lo, hi)
	}
}

func TestEstimateErrors(t *testing.T) {
	if _, err := (Tracker{}).Estimate(nil, nil); err == nil {
		t.Error("empty trajectory accepted")
	}
	if _, err := (Tracker{RelativeError: -1}).Estimate(straightLine(2, 1), nil); err == nil {
		t.Error("negative error accepted")
	}
	if _, err := (Tracker{RelativeError: 0.1}).Estimate(straightLine(2, 1), nil); err == nil {
		t.Error("nil rng accepted for nonzero error")
	}
}

func TestEstimateDeterministic(t *testing.T) {
	truth := straightLine(500, 0.01)
	a, err := Tracker{RelativeError: 0.05}.Estimate(truth, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Tracker{RelativeError: 0.05}.Estimate(truth, rand.New(rand.NewSource(3)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different estimates")
		}
	}
}

func TestEstimateStartsAtTruth(t *testing.T) {
	truth := straightLine(100, 0.01)
	est, err := Tracker{RelativeError: 0.1}.Estimate(truth, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if est[0] != truth[0] {
		t.Error("estimate does not start at the true position")
	}
}

func TestRelativeErrorOfEdgeCases(t *testing.T) {
	if RelativeErrorOf(nil, nil) != 0 {
		t.Error("nil input")
	}
	truth := straightLine(5, 0)
	if RelativeErrorOf(truth, truth) != 0 {
		t.Error("zero distance")
	}
	if RelativeErrorOf(straightLine(5, 1), straightLine(4, 1)) != 0 {
		t.Error("length mismatch")
	}
	a := straightLine(3, 1)
	b := straightLine(3, 1)
	b[2] = b[2].Add(geom.Vec3{Y: 0.2})
	if got := RelativeErrorOf(a, b); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("relative error = %g, want 0.1", got)
	}
}
