package detect

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ros/internal/beamshape"
	"ros/internal/coding"
	"ros/internal/em"
	"ros/internal/fault"
	"ros/internal/geom"
	"ros/internal/obs"
	"ros/internal/radar"
	"ros/internal/scene"
)

// buildScene assembles the Fig 11 illustration: a tag at the origin plus a
// tripod 1 m down the road.
func buildScene(t testing.TB, bits string, withTripod bool, rng *rand.Rand) *scene.Scene {
	t.Helper()
	b, err := coding.ParseBits(bits)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := coding.NewLayout(b, coding.DefaultDelta())
	if err != nil {
		t.Fatal(err)
	}
	tag, err := scene.NewTag(layout, beamshape.Shaped(32), geom.Vec3{})
	if err != nil {
		t.Fatal(err)
	}
	sc := &scene.Scene{Tags: []*scene.Tag{tag}}
	if withTripod {
		sc.Clutter = append(sc.Clutter, scene.NewObject(scene.ClassTripod, geom.Vec3{X: 1.0}, rng))
	}
	return sc
}

// passPositions builds a decimated drive-by: the cart pass of Sec 7.1 at
// 3 m standoff covering +/-4 m, sampled at enough frames for Nyquist.
func passPositions(standoff float64, frames int) []geom.Vec3 {
	out := make([]geom.Vec3, frames)
	for i := range out {
		x := -4 + 8*float64(i)/float64(frames-1)
		out[i] = geom.Vec3{X: x, Y: standoff, Z: 0}
	}
	return out
}

func TestPipelineDetectsAndSeparatesTagFromTripod(t *testing.T) {
	seed := int64(1)
	rng := rand.New(rand.NewSource(1))
	sc := buildScene(t, "1111", true, rng)
	p := NewPipeline(radar.TI1443())
	truth := passPositions(3, 240)
	res, err := p.RunContext(context.Background(), sc, truth, truth, geom.Vec3{X: 2}, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Objects) < 2 {
		t.Fatalf("found %d objects, want tag + tripod (merged points: %d)", len(res.Objects), len(res.MergedPoints))
	}
	if res.TagIndex < 0 {
		t.Fatalf("tag not identified; objects: %+v", res.Objects)
	}
	tag := res.Objects[res.TagIndex]
	// The tag centroid is near the origin.
	if tag.Centroid.Norm() > 0.3 {
		t.Errorf("tag centroid at %v, want near origin", tag.Centroid)
	}
	// Exactly one object classified as tag (no false alarm, Sec 7.2).
	count := 0
	for _, o := range res.Objects {
		if o.IsTag {
			count++
		}
	}
	if count != 1 {
		t.Errorf("%d objects classified as tag, want 1: %+v", count, res.Objects)
	}
}

func TestTagRSSLossNearThirteenDB(t *testing.T) {
	seed := int64(2)
	rng := rand.New(rand.NewSource(2))
	sc := buildScene(t, "1111", false, rng)
	p := NewPipeline(radar.TI1443())
	truth := passPositions(3, 240)
	res, err := p.RunContext(context.Background(), sc, truth, truth, geom.Vec3{X: 2}, seed)
	if err != nil {
		t.Fatal(err)
	}
	if res.TagIndex < 0 {
		t.Fatal("tag not found")
	}
	loss := res.Objects[res.TagIndex].RSSLossDB
	// Fig 13a: the tag's median RSS loss is ~13 dB.
	if loss < 9 || loss > 15 {
		t.Errorf("tag RSS loss = %g dB, want ~13", loss)
	}
}

func TestClutterRSSLossSixteenToNineteen(t *testing.T) {
	seed := int64(3)
	rng := rand.New(rand.NewSource(3))
	sc := buildScene(t, "1111", false, rng)
	lamp := scene.NewObject(scene.ClassStreetLamp, geom.Vec3{X: 1.2}, rng)
	sc.Clutter = append(sc.Clutter, lamp)
	p := NewPipeline(radar.TI1443())
	truth := passPositions(3, 240)
	res, err := p.RunContext(context.Background(), sc, truth, truth, geom.Vec3{X: 2}, seed)
	if err != nil {
		t.Fatal(err)
	}
	// Find the lamp cluster (centroid near x = 1.2).
	found := false
	for _, o := range res.Objects {
		if math.Abs(o.Centroid.X-1.2) < 0.3 && math.Abs(o.Centroid.Y) < 0.3 {
			found = true
			if o.RSSLossDB < 14 || o.RSSLossDB > 23 {
				t.Errorf("lamp RSS loss = %g dB, want 16-19", o.RSSLossDB)
			}
			if o.IsTag {
				t.Error("lamp classified as tag")
			}
		}
	}
	if !found {
		t.Errorf("lamp cluster not found: %+v", res.Objects)
	}
}

func TestTagSamplesFeedDecoder(t *testing.T) {
	seed := int64(4)
	rng := rand.New(rand.NewSource(4))
	sc := buildScene(t, "1111", false, rng)
	p := NewPipeline(radar.TI1443())
	truth := passPositions(3, 300)
	res, err := p.RunContext(context.Background(), sc, truth, truth, geom.Vec3{X: 2}, seed)
	if err != nil {
		t.Fatal(err)
	}
	if res.TagIndex < 0 {
		t.Fatal("tag not found")
	}
	if len(res.TagU) < 100 {
		t.Fatalf("only %d tag samples", len(res.TagU))
	}
	dec, err := coding.NewDecoder(4, coding.DefaultDelta(), em.Lambda79())
	if err != nil {
		t.Fatal(err)
	}
	out, err := dec.Decode(res.TagU, res.TagRSS, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := coding.BitsString(out.Bits); got != "1111" {
		t.Errorf("end-to-end decode = %q, want 1111 (SNR %g dB)", got, out.SNRdB)
	}
	if out.SNRdB < 10 {
		t.Errorf("end-to-end SNR = %g dB, want >= 10", out.SNRdB)
	}
}

func TestMinClusterFramesDefaultAligned(t *testing.T) {
	// Regression for the 10-vs-25 inconsistency: the Sec 6 density filter
	// is 25 frames, every reported object passed it, and a zero-value
	// Pipeline falls back to the same behaviour as the constructor.
	if minClusterFrames != 25 {
		t.Fatalf("minClusterFrames = %d, want 25 (Sec 6 density filter)", minClusterFrames)
	}
	rng := rand.New(rand.NewSource(11))
	sc := buildScene(t, "1111", true, rng)
	truth := passPositions(3, 150)
	a, err := NewPipeline(radar.TI1443()).RunContext(context.Background(), sc, truth, truth, geom.Vec3{X: 2}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Objects) == 0 {
		t.Fatal("no object survived the density filter")
	}
	for i, o := range a.Objects {
		if o.Points < minClusterFrames {
			t.Errorf("object %d has %d points, below the %d-frame density filter", i, o.Points, minClusterFrames)
		}
	}
	q := &Pipeline{Radar: radar.TI1443(), DecodeAzimuthCapDeg: 60} // TagMaxExtent falls back in Run
	b, err := q.RunContext(context.Background(), sc, truth, truth, geom.Vec3{X: 2}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Objects, b.Objects) || a.TagIndex != b.TagIndex ||
		!reflect.DeepEqual(a.TagU, b.TagU) || !reflect.DeepEqual(a.TagRSS, b.TagRSS) {
		t.Errorf("zero-value Pipeline diverged from the constructor default:\n%+v\nvs\n%+v",
			a.Objects, b.Objects)
	}
}

func TestRunErrors(t *testing.T) {
	seed := int64(5)
	rng := rand.New(rand.NewSource(5))
	sc := buildScene(t, "11", false, rng)
	p := NewPipeline(radar.TI1443())
	if _, err := p.RunContext(context.Background(), sc, nil, nil, geom.Vec3{}, seed); err == nil {
		t.Error("empty trajectory accepted")
	}
	truth := passPositions(3, 10)
	if _, err := p.RunContext(context.Background(), sc, truth, truth[:5], geom.Vec3{}, seed); err == nil {
		t.Error("mismatched estimates accepted")
	}
	bad := p
	bad.Radar.NumRx = 0
	if _, err := bad.RunContext(context.Background(), sc, truth, truth, geom.Vec3{}, seed); err == nil {
		t.Error("invalid radar accepted")
	}
}

func TestNoTagScene(t *testing.T) {
	seed := int64(6)
	rng := rand.New(rand.NewSource(6))
	sc := &scene.Scene{Clutter: []*scene.Object{
		scene.NewObject(scene.ClassStreetLamp, geom.Vec3{}, rng),
	}}
	p := NewPipeline(radar.TI1443())
	truth := passPositions(3, 150)
	res, err := p.RunContext(context.Background(), sc, truth, truth, geom.Vec3{X: 2}, seed)
	if err != nil {
		t.Fatal(err)
	}
	if res.TagIndex >= 0 {
		t.Errorf("false alarm: lamp classified as tag: %+v", res.Objects[res.TagIndex])
	}
}

// TestDecodeBinsIndependentOfOrderAndWorkers: a closed-form decode-mode bin
// is a pure function of (seed, frame, bin). Frames synthesized at 1 and 4
// workers, read forward, backward and from concurrent goroutines, all give
// bit-identical powers, and repeated reads of one bin agree.
func TestDecodeBinsIndependentOfOrderAndWorkers(t *testing.T) {
	const seed = 5
	rng := rand.New(rand.NewSource(1))
	sc := buildScene(t, "1011", true, rng)
	truth := passPositions(3, 64)
	synth := func(workers int) ([]frameData, *decodeReader) {
		p := NewPipeline(radar.TI1443())
		p.Workers = workers
		sp := obs.StartSpan("test")
		defer sp.Release()
		cols := radar.NewColumnStore(len(truth), p.Radar.NumRx, p.Radar.Samples, p.columnFloor())
		t.Cleanup(cols.Release)
		frames, _, err := p.synthesizeFrames(context.Background(), sc, truth, geom.Vec3{X: 2}, seed, cols, sp)
		if err != nil {
			t.Fatal(err)
		}
		return frames, p.newDecodeReader(seed)
	}
	type key struct{ i, bin int }
	var keys []key
	for i := range truth {
		for _, bin := range []int{0, 30 + i%7, 31 + i%7, 255} {
			keys = append(keys, key{i, bin})
		}
	}
	frames1, dec1 := synth(1)
	for _, fd := range frames1 {
		if !fd.ok || fd.replay || len(fd.decScat) == 0 {
			t.Fatal("ideal-converter frame did not take the closed-form decode path")
		}
	}
	want := make([]float64, len(keys))
	for n, k := range keys {
		want[n] = dec1.power(&frames1[k.i], k.i, k.bin, 0.1)
	}
	for n := len(keys) - 1; n >= 0; n-- {
		k := keys[n]
		if got := dec1.power(&frames1[k.i], k.i, k.bin, 0.1); got != want[n] {
			t.Fatalf("frame %d bin %d: reverse-order read %v, forward %v", k.i, k.bin, got, want[n])
		}
	}
	frames4, dec4 := synth(4)
	got := make([]float64, len(keys))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := w; n < len(keys); n += 4 {
				k := keys[n]
				got[n] = dec4.power(&frames4[k.i], k.i, k.bin, 0.1)
			}
		}(w)
	}
	wg.Wait()
	for n, k := range keys {
		if got[n] != want[n] {
			t.Fatalf("frame %d bin %d: 4-worker concurrent read %v, 1-worker %v", k.i, k.bin, got[n], want[n])
		}
	}
	if d := dec1.bins.Load(); d != int64(2*len(keys)) {
		t.Errorf("decode_bins counter = %d, want %d", d, 2*len(keys))
	}
}

// TestWorkCountsFollowDecodePath pins the frames / fft_calls / decode_bins
// counters to the work actually done. The ideal converter synthesizes and
// transforms one frame per pose. Pass 1 of a quantizer does the same, and
// the decode replay then synthesizes and transforms each pose's decode frame
// once more. A fault plan synthesizes one frame per sample-faulted pose in
// pass 1 (the decode frame's scrubbed samples are counted from its fault
// draws) and transforms it, unless the pose is dropped as corrupt; the
// replay adds one synthesis and one transform per surviving faulted pose.
// Dropped poses do no work. Every pose of this pass sees the tag, so every replayable pose
// is replayed.
func TestWorkCountsFollowDecodePath(t *testing.T) {
	const n = 120
	truth := passPositions(3, n)
	faultCfg := fault.Config{Seed: 7, FrameDropRate: 0.05, CorruptRate: 0.1, BurstRate: 0.05}
	inj, err := fault.New(faultCfg)
	if err != nil {
		t.Fatal(err)
	}
	adc := radar.TI1443()
	adc.ADCBits = 12
	for _, tc := range []struct {
		name  string
		radar radar.Config
		fault *fault.Injector
	}{
		{"ideal", radar.TI1443(), nil},
		{"adc12", adc, nil},
		{"faulted", radar.TI1443(), inj},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPipeline(tc.radar)
			p.Fault = tc.fault
			sc := buildScene(t, "1111", false, rand.New(rand.NewSource(1)))
			res, err := p.RunContext(context.Background(), sc, truth, truth, geom.Vec3{X: 2}, 3)
			if err != nil {
				t.Fatal(err)
			}
			defer res.Span.Release()
			if res.TagIndex < 0 {
				t.Fatal("tag not detected")
			}
			for i := range truth {
				if _, _, _, ok := p.spotView(truth[i], res.Objects[res.TagIndex].Centroid, false); !ok {
					t.Fatalf("pose %d does not see the tag; the expected counts assume every pose does", i)
				}
			}
			wantFrames, wantFFTFrames := n, n
			switch tc.name {
			case "adc12":
				wantFrames, wantFFTFrames = 2*n, 2*n
			case "faulted":
				wantFrames, wantFFTFrames = 0, 0
				faulted := 0
				for i := 0; i < n; i++ {
					switch ff := inj.Frame(i); {
					case ff.Drop:
					case ff.Corrupt || ff.Burst:
						faulted++
					default:
						wantFrames++
						wantFFTFrames++
					}
				}
				// Poses dropped for corruption past the repair threshold were
				// synthesized but never transformed, nor replayed.
				replayed := faulted - (res.FramesDropped - inj.Kinds(n).Drop)
				wantFrames += faulted + replayed
				wantFFTFrames += 2 * replayed
				if faulted == 0 {
					t.Fatal("fault plan injected no sample faults; raise the rates")
				}
			}
			if got := res.Span.IntAttr("frames"); got != int64(wantFrames) {
				t.Errorf("frames = %d, want %d", got, wantFrames)
			}
			if got := res.Span.IntAttr("fft_calls"); got != int64(wantFFTFrames*tc.radar.NumRx) {
				t.Errorf("fft_calls = %d, want %d", got, wantFFTFrames*tc.radar.NumRx)
			}
			bins := res.Span.Child(SpanSpotlight).IntAttr("decode_bins")
			if tc.name == "adc12" && bins != 0 {
				t.Errorf("quantized run evaluated %d closed-form decode bins, want 0", bins)
			}
			if tc.name != "adc12" && bins == 0 {
				t.Error("ideal-converter run evaluated no closed-form decode bins")
			}
		})
	}
}
