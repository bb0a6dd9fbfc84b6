package ros

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (run `go test -bench=. -benchmem`); one benchmark per paper
// artifact, named after the experiment index in DESIGN.md, plus
// micro-benchmarks for the hot paths of the substrate.

import (
	"context"
	"math/rand"
	"testing"

	"ros/internal/cluster"
	"ros/internal/coding"
	"ros/internal/dsp"
	"ros/internal/em"
	"ros/internal/experiments"
	"ros/internal/geom"
	"ros/internal/obs"
	"ros/internal/radar"
	"ros/internal/vaa"
)

// benchTable runs one experiment generator per iteration.
func benchTable(b *testing.B, run func(context.Context) *experiments.Table) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t := run(context.Background())
		if len(t.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

func BenchmarkFig03AntennaPairs(b *testing.B)   { benchTable(b, experiments.Fig03) }
func BenchmarkFig04aMonostatic(b *testing.B)    { benchTable(b, experiments.Fig04a) }
func BenchmarkFig04bBistatic(b *testing.B)      { benchTable(b, experiments.Fig04b) }
func BenchmarkFig05Psvaa(b *testing.B)          { benchTable(b, experiments.Fig05) }
func BenchmarkFig06PsvaaBand(b *testing.B)      { benchTable(b, experiments.Fig06) }
func BenchmarkFig08BeamShaping(b *testing.B)    { benchTable(b, experiments.Fig08) }
func BenchmarkFig10SpatialCode(b *testing.B)    { benchTable(b, experiments.Fig10) }
func BenchmarkFig11Detection(b *testing.B)      { benchTable(b, experiments.Fig11) }
func BenchmarkFig13TagFeatures(b *testing.B)    { benchTable(b, experiments.Fig13) }
func BenchmarkFig14Elevation(b *testing.B)      { benchTable(b, experiments.Fig14) }
func BenchmarkFig15Distance(b *testing.B)       { benchTable(b, experiments.Fig15) }
func BenchmarkFig16aAdjacentTag(b *testing.B)   { benchTable(b, experiments.Fig16a) }
func BenchmarkFig16bAdjacentRadar(b *testing.B) { benchTable(b, experiments.Fig16b) }
func BenchmarkFig16cFog(b *testing.B)           { benchTable(b, experiments.Fig16c) }
func BenchmarkFig16dTrackingError(b *testing.B) { benchTable(b, experiments.Fig16d) }
func BenchmarkFig17FieldOfView(b *testing.B)    { benchTable(b, experiments.Fig17) }
func BenchmarkFig18Speed(b *testing.B)          { benchTable(b, experiments.Fig18) }
func BenchmarkTableLinkBudget(b *testing.B)     { benchTable(b, experiments.LinkBudget) }
func BenchmarkTableCapacity(b *testing.B)       { benchTable(b, experiments.Capacity) }
func BenchmarkTablePairBound(b *testing.B)      { benchTable(b, experiments.PairBound) }

// Ablations and Sec 8 extensions.

func BenchmarkAblationPolSwitch(b *testing.B)  { benchTable(b, experiments.AblationPolSwitch) }
func BenchmarkAblationWindow(b *testing.B)     { benchTable(b, experiments.AblationWindow) }
func BenchmarkAblationDetrend(b *testing.B)    { benchTable(b, experiments.AblationDetrend) }
func BenchmarkAblationSampling(b *testing.B)   { benchTable(b, experiments.AblationSampling) }
func BenchmarkExtensionCP(b *testing.B)        { benchTable(b, experiments.ExtensionCP) }
func BenchmarkExtensionASK(b *testing.B)       { benchTable(b, experiments.ExtensionASK) }
func BenchmarkExtensionNFFA(b *testing.B)      { benchTable(b, experiments.ExtensionNFFA) }
func BenchmarkAblationGround(b *testing.B)     { benchTable(b, experiments.AblationGroundMultipath) }
func BenchmarkAblationWavelength(b *testing.B) { benchTable(b, experiments.AblationWavelength) }
func BenchmarkAblationADC(b *testing.B)        { benchTable(b, experiments.AblationADC) }
func BenchmarkExtensionOcclusion(b *testing.B) { benchTable(b, experiments.ExtensionOcclusion) }
func BenchmarkExtensionElevation(b *testing.B) { benchTable(b, experiments.ExtensionElevation) }
func BenchmarkExtensionLocalization(b *testing.B) {
	benchTable(b, experiments.ExtensionLocalization)
}
func BenchmarkExtensionRain(b *testing.B) { benchTable(b, experiments.ExtensionRain) }
func BenchmarkExtensionCommercial(b *testing.B) {
	benchTable(b, experiments.ExtensionCommercialRange)
}
func BenchmarkMonteCarloBER(b *testing.B) { benchTable(b, experiments.MonteCarloBER) }

// --- substrate micro-benchmarks ---

func BenchmarkFFT1024(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dsp.FFT(x)
	}
}

func BenchmarkPSVAAScatter(b *testing.B) {
	a := vaa.NewPSVAA(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MonostaticRCS(0.3, em.CenterFrequency, em.PolV, em.PolH)
	}
}

func BenchmarkFrameSynthesis(b *testing.B) {
	cfg := radar.TI1443()
	rng := rand.New(rand.NewSource(2))
	scatterers := make([]radar.Scatterer, 20)
	for i := range scatterers {
		scatterers[i] = radar.Scatterer{
			Range:     2 + rng.Float64()*5,
			Azimuth:   rng.Float64() - 0.5,
			Amplitude: 1e-5,
		}
	}
	plan := cfg.NewSynthPlan()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := dsp.AcquireGauss(int64(i))
		radar.ReleaseFrame(plan.Synthesize(scatterers, g))
		dsp.ReleaseGauss(g)
	}
}

func BenchmarkRangeProfile(b *testing.B) {
	cfg := radar.TI1443()
	rng := rand.New(rand.NewSource(3))
	frame := cfg.Synthesize([]radar.Scatterer{{Range: 3, Amplitude: 1e-5}}, rng)
	plan := cfg.NewSynthPlan()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		radar.ReleaseProfile(plan.RangeProfile(frame))
	}
}

// BenchmarkSynthesize measures the plan executor alone: scene-static terms
// precomputed once, noiseless so only the tone kernels run.
func BenchmarkSynthesize(b *testing.B) {
	cfg := radar.TI1443()
	rng := rand.New(rand.NewSource(2))
	scatterers := make([]radar.Scatterer, 20)
	for i := range scatterers {
		scatterers[i] = radar.Scatterer{
			Range:     2 + rng.Float64()*5,
			Azimuth:   rng.Float64() - 0.5,
			Amplitude: 1e-5,
		}
	}
	plan := cfg.NewSynthPlan()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		radar.ReleaseFrame(plan.Synthesize(scatterers, nil))
	}
}

// BenchmarkRangeFFTBatched measures the fused window+IFFT over all channels
// of one frame through the batched plan path.
func BenchmarkRangeFFTBatched(b *testing.B) {
	cfg := radar.TI1443()
	plan := cfg.NewSynthPlan()
	frame := plan.Synthesize([]radar.Scatterer{{Range: 3, Amplitude: 1e-5}}, dsp.NewGauss(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		radar.ReleaseProfile(plan.RangeProfile(frame))
	}
}

func BenchmarkAoASpectrum(b *testing.B) {
	cfg := radar.TI1443()
	rng := rand.New(rand.NewSource(5))
	frame := cfg.Synthesize([]radar.Scatterer{{Range: 4, Azimuth: 0.2, Amplitude: 1e-4}}, rng)
	plan := cfg.NewSynthPlan()
	rp := plan.RangeProfile(frame)
	bin := cfg.BinForRange(4)
	angles := plan.ScanAngles()
	spec := make([]float64, len(angles))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.AoASpectrumInto(spec, rp, bin, angles)
	}
}

func BenchmarkBeamPower(b *testing.B) {
	cfg := radar.TI1443()
	rng := rand.New(rand.NewSource(6))
	frame := cfg.Synthesize([]radar.Scatterer{{Range: 4, Azimuth: 0.2, Amplitude: 1e-4}}, rng)
	rp := cfg.RangeProfile(frame)
	bin := cfg.BinForRange(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.BeamPower(rp, bin, 0.2)
	}
}

func BenchmarkDBSCAN(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	pts := make([]cluster.Point, 800)
	for i := range pts {
		pts[i] = cluster.Point{
			Pos:    geom.Vec2{X: rng.Float64() * 10, Y: rng.Float64() * 2},
			Weight: 1,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster.DBSCAN(pts, 0.25, 10)
	}
}

func BenchmarkSpectrumDecode(b *testing.B) {
	bits, _ := coding.ParseBits("1111")
	layout, _ := coding.NewLayout(bits, coding.DefaultDelta())
	lambda := em.Lambda79()
	pos := layout.Positions()
	n := 600
	us := make([]float64, n)
	rss := make([]float64, n)
	for i := range us {
		u := -0.55 + 1.1*float64(i)/float64(n-1)
		us[i] = u
		rss[i] = coding.MultiStackGain(pos, u, lambda)
	}
	dec, _ := coding.NewDecoder(4, coding.DefaultDelta(), lambda)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(us, rss); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEndToEndRead(b *testing.B) {
	tag, err := NewTag("1111")
	if err != nil {
		b.Fatal(err)
	}
	r := NewReader()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Read(tag, ReadOptions{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndReadF64 is the numerical A/B baseline: the same read
// with the float32 synthesis lane forced off. The gap against
// BenchmarkEndToEndRead is the f32 lane's end-to-end saving.
func BenchmarkEndToEndReadF64(b *testing.B) {
	tag, err := NewTag("1111")
	if err != nil {
		b.Fatal(err)
	}
	r := NewReader()
	r.radar.ForceFloat64 = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Read(tag, ReadOptions{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndReadFullScan forces every per-frame point-cloud scan to
// walk all range bins — the incremental-scan A/B baseline.
func BenchmarkEndToEndReadFullScan(b *testing.B) {
	tag, err := NewTag("1111")
	if err != nil {
		b.Fatal(err)
	}
	r := NewReader()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := readFullScan(context.Background(), r, tag, ReadOptions{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndReadObsOff is the observability-overhead baseline: the
// same read with the flight recorder disabled. `make obs-overhead` compares
// it against BenchmarkEndToEndRead and fails past the 2% budget.
func BenchmarkEndToEndReadObsOff(b *testing.B) {
	tag, err := NewTag("1111")
	if err != nil {
		b.Fatal(err)
	}
	r := NewReader()
	prev := obs.DefaultFlight.SetEnabled(false)
	defer obs.DefaultFlight.SetEnabled(prev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Read(tag, ReadOptions{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
