package detect

import (
	"context"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"ros/internal/dsp"
	"ros/internal/geom"
	"ros/internal/obs"
	"ros/internal/radar"
	"ros/internal/scene"
	"ros/internal/sweep"
)

// TestSparseSpotlightColumns pins the argument that lets pass 1 release each
// detection profile after its scan. Over every frame and bin of a tag-only
// pass and a cluttered one, at each angle of the plan's 121-angle scan grid:
// a kept column steers to exactly the power of the full profile's column, and a dropped bin never clears classifyObject's detection gate.
// The profiles are rebuilt the way pass 1 builds them, and the columns
// pass 1 kept must match theirs bit for bit. Pass 1 must leave no frame
// holding a full detection profile or any decode-mode columns.
func TestSparseSpotlightColumns(t *testing.T) {
	clutter := buildScene(t, "1011", true, rand.New(rand.NewSource(3)))
	clutter.Clutter = append(clutter.Clutter,
		scene.NewObject(scene.ClassStreetLamp, geom.Vec3{X: -1.2}, rand.New(rand.NewSource(4))))
	for _, tc := range []struct {
		name string
		sc   *scene.Scene
		// maxShare bounds the share of the pass's bins pass 1 keeps, set
		// from measurement: 9.0% and 14.2% under the steering bound, where
		// a floor on channel-summed power alone kept 29% and 33%.
		maxShare float64
	}{
		{"canonical", buildScene(t, "1111", false, rand.New(rand.NewSource(1))), 0.10},
		{"clutter", clutter, 0.15},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const seed = 1
			p := NewPipeline(radar.TI1443())
			c := p.Radar
			truth := passPositions(3, 120)
			vel := geom.Vec3{X: 2}
			cols := radar.NewColumnStore(len(truth), c.NumRx, c.Samples, p.columnFloor())
			defer cols.Release()
			sp := obs.StartSpan("test")
			frames, _, err := p.synthesizeFrames(context.Background(), tc.sc, truth, vel, seed, cols, sp)
			sp.Release()
			if err != nil {
				t.Fatal(err)
			}

			plan := p.resources().SynthPlan(c)
			angles := plan.ScanAngles()
			if len(angles) != 121 {
				t.Fatalf("scan grid has %d angles, want 121", len(angles))
			}
			noise := p.spotNoise()
			mine := radar.NewColumnStore(len(truth), c.NumRx, c.Samples, p.columnFloor())
			defer mine.Release()
			kept := 0
			for i, pose := range truth {
				fd := frames[i]
				if !fd.ok || fd.cols == nil {
					t.Fatalf("frame %d: pass 1 kept no columns", i)
				}
				if fd.dec != nil {
					t.Fatalf("frame %d holds decode columns after pass 1", i)
				}
				frameKept := 0
				rng := sweep.NewRand(seed, i)
				g := dsp.AcquireGauss(noiseSeed(seed, i))
				f := plan.Synthesize(tc.sc.Scatterers(pose, vel, scene.ModeDetect, c.FrontEnd, c.CenterFrequency, rng), g)
				dsp.ReleaseGauss(g)
				rp := plan.RangeProfile(f)
				radar.ReleaseFrame(f)
				mc := mine.Frame(i)
				plan.PointCloudScan(rp, mc)
				for bin := 0; bin < c.Samples; bin++ {
					col, whole := mc.At(bin), profileColumn(rp, bin)
					if col != nil {
						frameKept++
					}
					if !equalColumn(col, fd.cols.At(bin)) {
						t.Fatalf("frame %d bin %d: pass 1 kept %v, rebuilt profile gives %v", i, bin, fd.cols.At(bin), col)
					}
					for _, az := range angles {
						full := c.SteerPower(whole, az)
						if col != nil {
							if got := c.SteerPower(col, az); got != full {
								t.Fatalf("frame %d bin %d az %.3f: kept column steers to %v, profile to %v", i, bin, az, got, full)
							}
						} else if full-noise > detGate*noise {
							t.Fatalf("frame %d bin %d az %.3f: dropped bin clears the gate (%v > %v)",
								i, bin, az, full-noise, detGate*noise)
						}
					}
				}
				radar.ReleaseProfile(rp)
				if frameKept >= c.Samples {
					t.Fatalf("frame %d holds a full profile: all %d detection bins kept", i, c.Samples)
				}
				kept += frameKept
			}
			share := float64(kept) / float64(len(truth)*c.Samples)
			t.Logf("kept %d of %d bins (%.1f%%)", kept, len(truth)*c.Samples, 100*share)
			if share > tc.maxShare {
				t.Fatalf("pass 1 kept %.1f%% of the bins, want at most %.0f%%", 100*share, 100*tc.maxShare)
			}
		})
	}
}

// TestColumnFloorKeepsGateWave: a lone plane wave whose steered power at
// its own azimuth lands exactly on classifyObject's detection gate is kept,
// at every azimuth the spotlight can steer to; one 2% under the gate is
// dropped, since for a plane wave the steering bound is exact and the
// floor sits only 1% under the gate.
func TestColumnFloorKeepsGateWave(t *testing.T) {
	p := NewPipeline(radar.TI1443())
	c := p.Radar
	plan := p.resources().SynthPlan(c)
	gate := (detGate + 1) * p.spotNoise()
	const bin = 40
	for _, az := range []float64{0, 0.3, -0.3, 0.6, -0.6} {
		for _, tc := range []struct {
			scale float64
			kept  bool
		}{{1, true}, {0.98, false}} {
			rp := radar.RangeProfile{Bins: make([][]complex128, c.NumRx), BinSize: c.RangeBinSize()}
			w := 2 * math.Pi * c.RxSpacing * math.Sin(az) / c.Wavelength()
			a := math.Sqrt(tc.scale * gate)
			for k := range rp.Bins {
				rp.Bins[k] = make([]complex128, c.Samples)
				rp.Bins[k][bin] = complex(a, 0) * cmplx.Exp(complex(0, -float64(k)*w))
			}
			col := profileColumn(rp, bin)
			if sp := c.SteerPower(col, az); math.Abs(sp-tc.scale*gate) > 1e-12*gate {
				t.Fatalf("azimuth %.1f: wave steers to %g, want %g", az, sp, tc.scale*gate)
			}
			s := radar.NewColumnStore(1, c.NumRx, c.Samples, p.columnFloor())
			plan.PointCloudScan(rp, s.Frame(0))
			if got := s.Frame(0).At(bin) != nil; got != tc.kept {
				t.Errorf("azimuth %.1f, wave at %.2f of the gate: kept %v, want %v", az, tc.scale, got, tc.kept)
			}
			s.Release()
		}
	}
}

// profileColumn gathers bin's per-channel values from a full profile.
func profileColumn(rp radar.RangeProfile, bin int) []complex128 {
	col := make([]complex128, len(rp.Bins))
	for k, ch := range rp.Bins {
		col[k] = ch[bin]
	}
	return col
}

// equalColumn reports whether two kept columns (nil when dropped) agree bit
// for bit.
func equalColumn(a, b []complex128) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}
