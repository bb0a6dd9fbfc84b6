package ros

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"ros/internal/trace"
)

func TestNewTagDefaults(t *testing.T) {
	tag, err := NewTag("1111")
	if err != nil {
		t.Fatal(err)
	}
	if tag.Bits() != "1111" || tag.Modules() != 32 || !tag.BeamShaped() {
		t.Errorf("defaults: bits=%q modules=%d shaped=%v", tag.Bits(), tag.Modules(), tag.BeamShaped())
	}
	// Paper Sec 5.3: the 4-bit tag is 22.5 lambda (~8.5 cm) wide with a
	// ~2.9 m far field.
	if w := tag.Width(); w < 0.08 || w > 0.09 {
		t.Errorf("width = %g m, want ~0.085", w)
	}
	if ff := tag.FarFieldDistance(); ff < 2.7 || ff > 3.1 {
		t.Errorf("far field = %g m, want ~2.9", ff)
	}
	if v := tag.MaxVehicleSpeed(1000, 1.62); math.Abs(v-38.6) > 2 {
		t.Errorf("max speed = %g m/s, want ~38.5", v)
	}
}

func TestNewTagOptions(t *testing.T) {
	tag, err := NewTag("101", WithStackModules(16), WithoutBeamShaping(), WithUnitSpacing(2))
	if err != nil {
		t.Fatal(err)
	}
	if tag.Modules() != 16 || tag.BeamShaped() {
		t.Errorf("options not applied: %d modules, shaped=%v", tag.Modules(), tag.BeamShaped())
	}
}

// TestSmallStackTagReadsAsUnshaped pins that a default (beam-shaped) tag
// with fewer than the 4 modules shaping needs is built, reported and read as
// a uniform stack: every read succeeds, not just the first.
func TestSmallStackTagReadsAsUnshaped(t *testing.T) {
	tag, err := NewTag("11", WithStackModules(2))
	if err != nil {
		t.Fatal(err)
	}
	if tag.BeamShaped() {
		t.Error("2-module tag reports beam shaping it cannot have")
	}
	r := NewReader()
	for i := 0; i < 2; i++ {
		if _, err := r.Read(tag, ReadOptions{Standoff: 1, Seed: int64(i + 1)}); err != nil {
			t.Fatalf("read %d of a 2-module tag: %v", i+1, err)
		}
	}
}

func TestNewTagErrors(t *testing.T) {
	if _, err := NewTag(""); err == nil {
		t.Error("empty bits accepted")
	}
	if _, err := NewTag("10x"); err == nil {
		t.Error("invalid bits accepted")
	}
	if _, err := NewTag("11", WithStackModules(0)); err == nil {
		t.Error("zero modules accepted")
	}
	if _, err := NewTag("11", WithUnitSpacing(-1)); err == nil {
		t.Error("negative spacing accepted")
	}
}

func TestTagLayoutMatchesPaper(t *testing.T) {
	tag, err := NewTag("1010")
	if err != nil {
		t.Fatal(err)
	}
	layout := tag.Layout()
	if len(layout) != 5 {
		t.Fatalf("layout has %d slots, want 5", len(layout))
	}
	if !layout[0].Present || layout[0].Position != 0 {
		t.Errorf("reference slot = %+v", layout[0])
	}
	// "1010": slots 1 and 3 present, 2 and 4 absent.
	wantPresent := []bool{true, false, true, false}
	for k := 1; k <= 4; k++ {
		if layout[k].Present != wantPresent[k-1] {
			t.Errorf("slot %d present = %v, want %v", k, layout[k].Present, wantPresent[k-1])
		}
	}
	// Signs alternate (+, -, +, -).
	if layout[1].Position <= 0 || layout[2].Position >= 0 || layout[3].Position <= 0 || layout[4].Position >= 0 {
		t.Errorf("slot signs wrong: %+v", layout[1:])
	}
}

func TestPredictedSpectrumHasCodingPeaks(t *testing.T) {
	tag, err := NewTag("1111")
	if err != nil {
		t.Fatal(err)
	}
	spacing, mag, err := tag.PredictedSpectrum(0.6, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(spacing) != len(mag) || len(spacing) == 0 {
		t.Fatal("degenerate spectrum")
	}
	// The strongest coding-band bin sits near one of the designed
	// positions (6..10.5 lambda ~ 22.8-39.9 mm).
	best, bestS := 0.0, 0.0
	for i, s := range spacing {
		if s > 0.02 && s < 0.042 && mag[i] > best {
			best, bestS = mag[i], s
		}
	}
	if best == 0 {
		t.Fatal("no energy in the coding band")
	}
	lambda := 0.0037948
	positions := []float64{6, 7.5, 9, 10.5}
	ok := false
	for _, p := range positions {
		if math.Abs(bestS-p*lambda) < 0.5*lambda {
			ok = true
		}
	}
	if !ok {
		t.Errorf("strongest coding-band bin at %g m, not near any coding position", bestS)
	}
}

func TestPredictedSpectrumErrors(t *testing.T) {
	tag, _ := NewTag("11")
	if _, _, err := tag.PredictedSpectrum(0, 256); err == nil {
		t.Error("zero span accepted")
	}
	if _, _, err := tag.PredictedSpectrum(2, 256); err == nil {
		t.Error("span > 1 accepted")
	}
	if _, _, err := tag.PredictedSpectrum(0.5, 8); err == nil {
		t.Error("too few points accepted")
	}
}

func TestReaderMaxRangeMatchesPaper(t *testing.T) {
	if d := NewReader().MaxRange(); math.Abs(d-6.9) > 0.3 {
		t.Errorf("TI reader range = %g m, want ~6.9", d)
	}
	if d := NewReader(WithCommercialFrontEnd()).MaxRange(); math.Abs(d-52) > 3 {
		t.Errorf("commercial reader range = %g m, want ~52", d)
	}
}

func TestEndToEndRead(t *testing.T) {
	tag, err := NewTag("1011")
	if err != nil {
		t.Fatal(err)
	}
	reading, err := NewReader().Read(tag, ReadOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !reading.Detected {
		t.Fatal("tag not detected")
	}
	if reading.Bits != "1011" {
		t.Errorf("decoded %q, want 1011 (SNR %g dB)", reading.Bits, reading.SNRdB)
	}
	if reading.SNRdB < 14 {
		t.Errorf("SNR = %g dB, want > 14 (paper Sec 7.2)", reading.SNRdB)
	}
}

func TestReadNilTag(t *testing.T) {
	if _, err := NewReader().Read(nil, ReadOptions{}); err == nil {
		t.Error("nil tag accepted")
	}
}

func TestDecodePublicAPI(t *testing.T) {
	tag, err := NewTag("1101")
	if err != nil {
		t.Fatal(err)
	}
	// Build ideal samples from the tag's own model via PredictedSpectrum's
	// underlying gain: emulate an external capture.
	lambda := 0.0037948
	var positions []float64
	for _, p := range tag.Layout() {
		if p.Present {
			positions = append(positions, p.Position)
		}
	}
	n := 900
	us := make([]float64, n)
	rss := make([]float64, n)
	for i := range us {
		u := -0.55 + 1.1*float64(i)/float64(n-1)
		us[i] = u
		var re, im float64
		k := 4 * math.Pi * u / lambda
		for _, d := range positions {
			re += math.Cos(k * d)
			im += math.Sin(k * d)
		}
		rss[i] = re*re + im*im
	}
	out, err := Decode(us, rss, 4)
	if err != nil {
		t.Fatal(err)
	}
	if out.Bits != "1101" {
		t.Errorf("Decode = %q, want 1101", out.Bits)
	}
	if len(out.PeakAmps) != 4 {
		t.Errorf("PeakAmps = %v", out.PeakAmps)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil, nil, 4); err == nil {
		t.Error("empty samples accepted")
	}
	if _, err := Decode([]float64{1}, []float64{1}, 0); err == nil {
		t.Error("zero bits accepted")
	}
}

func TestSNRToBERAnchors(t *testing.T) {
	if b := SNRToBER(15.8); math.Abs(b-0.001) > 0.0005 {
		t.Errorf("BER(15.8 dB) = %g, want ~0.1%%", b)
	}
	if b := SNRToBER(14); math.Abs(b-0.006) > 0.002 {
		t.Errorf("BER(14 dB) = %g, want ~0.6%%", b)
	}
}

func TestTagReview(t *testing.T) {
	tag, err := NewTag("1111")
	if err != nil {
		t.Fatal(err)
	}
	// A one-lane pass at city speed on the TI radar: everything passes.
	checks, err := tag.Review(Deployment{Standoff: 3, MaxSpeedMPS: 13})
	if err != nil {
		t.Fatal(err)
	}
	if len(checks) != 3 {
		t.Fatalf("got %d checks, want 3", len(checks))
	}
	for _, c := range checks {
		if !c.OK {
			t.Errorf("check %q failed: %s", c.Name, c.Detail)
		}
	}
	// Too close: the far-field check trips.
	checks, err = tag.Review(Deployment{Standoff: 1, MaxSpeedMPS: 13})
	if err != nil {
		t.Fatal(err)
	}
	if checks[0].OK {
		t.Error("far-field check passed at 1 m for a 2.9 m bound")
	}
	// Too far for the TI radar; fine for the commercial one.
	checks, _ = tag.Review(Deployment{Standoff: 10, MaxSpeedMPS: 13})
	if checks[2].OK {
		t.Error("link budget passed at 10 m on the TI radar")
	}
	checks, _ = tag.Review(Deployment{Standoff: 10, MaxSpeedMPS: 13, Commercial: true})
	if !checks[2].OK {
		t.Error("link budget failed at 10 m on the commercial radar")
	}
	// Render.
	out := ReviewString(checks)
	if !strings.Contains(out, "link budget") {
		t.Errorf("report missing check names:\n%s", out)
	}
}

func TestTagReviewErrors(t *testing.T) {
	tag, _ := NewTag("11")
	if _, err := tag.Review(Deployment{Standoff: 0, MaxSpeedMPS: 1}); err == nil {
		t.Error("zero standoff accepted")
	}
	if _, err := tag.Review(Deployment{Standoff: 3, MaxSpeedMPS: 0}); err == nil {
		t.Error("zero speed accepted")
	}
}

func TestSaveCaptureRoundTrip(t *testing.T) {
	tag, err := NewTag("1010")
	if err != nil {
		t.Fatal(err)
	}
	reading, err := NewReader().Read(tag, ReadOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !reading.Detected {
		t.Fatal("tag not detected")
	}
	path := filepath.Join(t.TempDir(), "read.json")
	if err := reading.SaveCapture(path, "test read"); err != nil {
		t.Fatal(err)
	}
	cap, err := trace.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Decode(cap.U, cap.RSS, cap.Bits)
	if err != nil {
		t.Fatal(err)
	}
	if out.Bits != "1010" {
		t.Errorf("capture decoded %q, want 1010", out.Bits)
	}
	// An undetected reading carries no capture.
	empty := &Reading{}
	if err := empty.SaveCapture(path, ""); err == nil {
		t.Error("empty reading saved a capture")
	}
}

func TestDecodeCaptureFile(t *testing.T) {
	tag, err := NewTag("1101")
	if err != nil {
		t.Fatal(err)
	}
	reading, err := NewReader().Read(tag, ReadOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !reading.Detected {
		t.Fatal("tag not detected")
	}
	path := filepath.Join(t.TempDir(), "cap.json")
	if err := reading.SaveCapture(path, "x"); err != nil {
		t.Fatal(err)
	}
	out, err := DecodeCaptureFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.Bits != "1101" {
		t.Errorf("capture decode = %q, want 1101", out.Bits)
	}
	if _, err := DecodeCaptureFile(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing capture accepted")
	}
}
