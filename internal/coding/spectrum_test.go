package coding

import (
	"math/rand"
	"testing"

	"ros/internal/dsp"
	"ros/internal/em"
)

// planCache is a PlanSource that builds each transform size once, as an
// engine.Engine does.
type planCache map[int]*dsp.Plan

func (c planCache) SpectrumPlan(n int) *dsp.Plan {
	if p, ok := c[n]; ok {
		return p
	}
	p := dsp.NewPlan(n, dsp.Rectangular)
	c[n] = p
	return p
}

// canonicalSeries returns a noisy 1111 series whose spectrum takes the
// canonical read's 8192-point transform (400 samples resample onto 1024
// points, zero-padded 8x).
func canonicalSeries(t testing.TB) (us, rss []float64) {
	l, err := NewLayout([]bool{true, true, true, true}, DefaultDelta())
	if err != nil {
		t.Fatal(err)
	}
	return synthesizeRSS(l, -0.55, 0.55, 400, 0.05, rand.New(rand.NewSource(3)))
}

// TestComputeSpectrumPlanSource: a supplied plan, reused across calls, gives
// the spectrum of a fresh per-call plan bit for bit.
func TestComputeSpectrumPlanSource(t *testing.T) {
	us, rss := canonicalSeries(t)
	opts := SpectrumOptions{Lambda: em.Lambda79(), Window: dsp.Hann}
	want, err := ComputeSpectrum(us, rss, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Mag) != 8192/2 {
		t.Fatalf("spectrum has %d bins, want the 8192-point transform's %d", len(want.Mag), 8192/2)
	}
	plans := planCache{}
	for pass := 0; pass < 2; pass++ {
		got, err := ComputeSpectrum(us, rss, opts, plans)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Mag {
			if got.Mag[i] != want.Mag[i] || got.Spacing[i] != want.Spacing[i] {
				t.Fatalf("pass %d bin %d: supplied plan gives %g at %g, fresh plan %g at %g",
					pass, i, got.Mag[i], got.Spacing[i], want.Mag[i], want.Spacing[i])
			}
		}
	}
	if len(plans) != 1 {
		t.Errorf("two spectra built %d plans, want 1", len(plans))
	}
}

// BenchmarkComputeSpectrum is one canonical-size decode spectrum on a plan
// the caller owns.
func BenchmarkComputeSpectrum(b *testing.B) {
	us, rss := canonicalSeries(b)
	opts := SpectrumOptions{Lambda: em.Lambda79(), Window: dsp.Hann}
	plans := planCache{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeSpectrum(us, rss, opts, plans); err != nil {
			b.Fatal(err)
		}
	}
}
