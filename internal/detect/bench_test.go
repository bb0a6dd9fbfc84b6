package detect

import (
	"context"
	"math/rand"
	"testing"

	"ros/internal/cluster"
	"ros/internal/geom"
	"ros/internal/obs"
	"ros/internal/radar"
)

// spotlightFixture synthesizes one drive-by pass and clusters it, returning
// everything the spotlight stage consumes: the frames hold detection-mode
// columns and decode-mode scatterers, which dec reads in closed form. The
// column store stays live for the benchmark's lifetime (never released),
// which is fine for a test process.
func spotlightFixture(b *testing.B) (*Pipeline, []frameData, *decodeReader, []cluster.Stats, []geom.Vec3) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	sc := buildScene(b, "1111", true, rng)
	p := NewPipeline(radar.TI1443())
	truth := passPositions(3, 240)
	sp := obs.StartSpan("bench")
	cols := radar.NewColumnStore(len(truth), p.Radar.NumRx, p.Radar.Samples, p.columnFloor())
	frames, _, err := p.synthesizeFrames(context.Background(), sc, truth, geom.Vec3{X: 2}, 1, cols, sp)
	sp.Release()
	if err != nil {
		b.Fatal(err)
	}
	cands := candidates(p, frames)
	if len(cands) == 0 {
		b.Fatal("no clusters survived the density filter")
	}
	return p, frames, p.newDecodeReader(1), cands, truth
}

// BenchmarkSpotlight measures the per-object classification kernel (both
// polarization modes spotlighted across the whole pass per object) — the
// sequential-tail stage the parallel spotlight pass distributes.
func BenchmarkSpotlight(b *testing.B) {
	p, frames, dec, cands, truth := spotlightFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, st := range cands {
			p.classifyObject(st, frames, dec, truth, 0.18)
		}
	}
}

// BenchmarkTagSampling measures the pass-2 decode-mode RCS sampling kernel
// (one closed-form decode bin per frame) for one full pass.
func BenchmarkTagSampling(b *testing.B) {
	p, frames, dec, cands, truth := spotlightFixture(b)
	tagPos := cands[0].Centroid
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range truth {
			p.sampleTagFrame(dec, &frames[j], j, truth[j], tagPos)
		}
	}
}
