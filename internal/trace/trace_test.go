package trace

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ros/internal/coding"
	"ros/internal/em"
)

func sampleCapture() *Capture {
	n := 64
	c := &Capture{
		Version:      CurrentVersion,
		Bits:         4,
		DeltaMeters:  coding.DefaultDelta(),
		LambdaMeters: em.Lambda79(),
		U:            make([]float64, n),
		RSS:          make([]float64, n),
		Note:         "unit test",
	}
	for i := range c.U {
		c.U[i] = -0.5 + float64(i)/float64(n-1)
		c.RSS[i] = 1 + 0.5*math.Cos(40*c.U[i])
	}
	return c
}

func TestRoundTripBuffer(t *testing.T) {
	c := sampleCapture()
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Bits != c.Bits || back.Note != c.Note || len(back.U) != len(c.U) {
		t.Errorf("round trip mismatch: %+v", back)
	}
	for i := range c.U {
		if back.U[i] != c.U[i] || back.RSS[i] != c.RSS[i] {
			t.Fatalf("sample %d changed", i)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "read.json")
	c := sampleCapture()
	if err := Save(path, c); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.DeltaMeters != c.DeltaMeters {
		t.Errorf("delta changed: %g", back.DeltaMeters)
	}
}

func TestValidateRejects(t *testing.T) {
	base := sampleCapture()
	cases := []func(*Capture){
		func(c *Capture) { c.Version = 99 },
		func(c *Capture) { c.Bits = 0 },
		func(c *Capture) { c.DeltaMeters = 0 },
		func(c *Capture) { c.LambdaMeters = 0 },
		func(c *Capture) { c.RSS = c.RSS[:3] },
		func(c *Capture) { c.U = c.U[:4]; c.RSS = c.RSS[:4] },
		func(c *Capture) { c.Range = []float64{1, 2} },
	}
	for i, mut := range cases {
		c := *base
		c.U = append([]float64(nil), base.U...)
		c.RSS = append([]float64(nil), base.RSS...)
		mut(&c)
		if c.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Read(strings.NewReader(`{"version":1}`)); err == nil {
		t.Error("empty capture accepted")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestCaptureDecodes(t *testing.T) {
	// A capture built from the far-field model must decode through the
	// standard decoder after a round trip.
	lambda := em.Lambda79()
	bits, err := coding.ParseBits("1010")
	if err != nil {
		t.Fatal(err)
	}
	layout, err := coding.NewLayout(bits, coding.DefaultDelta())
	if err != nil {
		t.Fatal(err)
	}
	pos := layout.Positions()
	n := 900
	c := &Capture{
		Version: CurrentVersion, Bits: 4,
		DeltaMeters: coding.DefaultDelta(), LambdaMeters: lambda,
		U: make([]float64, n), RSS: make([]float64, n),
	}
	for i := range c.U {
		u := -0.55 + 1.1*float64(i)/float64(n-1)
		c.U[i] = u
		c.RSS[i] = coding.MultiStackGain(pos, u, lambda)
	}
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := coding.NewDecoder(back.Bits, back.DeltaMeters, back.LambdaMeters)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dec.Decode(back.U, back.RSS, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := coding.BitsString(res.Bits); got != "1010" {
		t.Errorf("decoded %q from capture, want 1010", got)
	}
}

func TestSaveFailureKeepsExistingFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "read.json")
	good := sampleCapture()
	if err := Save(path, good); err != nil {
		t.Fatal(err)
	}
	// A capture that fails validation must not clobber the good file on
	// disk (the old implementation truncated it before validating).
	bad := sampleCapture()
	bad.U = bad.U[:4]
	bad.RSS = bad.RSS[:4]
	if err := Save(path, bad); err == nil {
		t.Fatal("invalid capture saved")
	}
	back, err := Load(path)
	if err != nil {
		t.Fatalf("previous capture corrupted: %v", err)
	}
	if len(back.U) != len(good.U) {
		t.Errorf("previous capture overwritten: %d samples", len(back.U))
	}
	// No temp-file litter either.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory has %d entries, want just the capture", len(entries))
	}
}

func TestSaveToMissingDirFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "no-such-dir", "read.json")
	if err := Save(path, sampleCapture()); err == nil {
		t.Error("save into missing directory succeeded")
	}
}
