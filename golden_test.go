package ros

// Golden digest of the reproduction: a fixed seed x configuration grid of
// full drive-by reads whose observable outcome is checked in under
// testdata/. Any change that moves a decoded bit, an SNR by 0.01 dB, a
// merged point, a tag centroid by 1 mm or the detection-mode RSS by 0.01 dB
// fails here and shows up in review as a diff of the digest. Regenerate it
// deliberately with
//
//	go test -run TestGoldenDigest -update-golden .
//
// (or `make golden`) and explain every changed row in the commit.

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ros/internal/em"
	"ros/internal/fault"
	"ros/internal/radar"
	"ros/internal/sim"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_reads.txt from the current code")

const goldenPath = "testdata/golden_reads.txt"

// goldenCase is one configuration row group of the digest.
type goldenCase struct {
	name string
	cfg  sim.DriveBy
}

// goldenCases is the fixed grid: the canonical tag, the 8-module tag at two
// standoffs in clear and heavy fog, a quantized 12-bit ADC, roadside
// clutter, the commercial front end, and a fault plan with sample
// corruption.
func goldenCases() []goldenCase {
	adc12 := radar.TI1443()
	adc12.ADCBits = 12
	commercial := radar.Commercial()
	canonical := sim.DriveBy{Bits: "1111", StackModules: 32, BeamShaped: true, Standoff: 3}
	eight := func(standoff float64, fog em.FogLevel) sim.DriveBy {
		return sim.DriveBy{Bits: "1011", StackModules: 8, BeamShaped: true, Standoff: standoff, Fog: fog}
	}
	with := func(cfg sim.DriveBy, edit func(*sim.DriveBy)) sim.DriveBy {
		edit(&cfg)
		return cfg
	}
	return []goldenCase{
		{"canonical-32-1111-3m", canonical},
		{"shaped-8-1011-2m-clear", eight(2, em.FogClear)},
		{"shaped-8-1011-2m-heavy", eight(2, em.FogHeavy)},
		{"shaped-8-1011-2.75m-clear", eight(2.75, em.FogClear)},
		{"shaped-8-1011-2.75m-heavy", eight(2.75, em.FogHeavy)},
		{"canonical-adc12", with(canonical, func(c *sim.DriveBy) { c.Radar = &adc12 })},
		{"canonical-clutter", with(canonical, func(c *sim.DriveBy) { c.WithClutter = true })},
		{"canonical-commercial", with(canonical, func(c *sim.DriveBy) { c.Radar = &commercial })},
		{"canonical-fault-corrupt", with(canonical, func(c *sim.DriveBy) {
			c.Fault = &fault.Config{Seed: 7, FrameDropRate: 0.05, CorruptRate: 0.1, BurstRate: 0.05}
		})},
	}
}

// goldenRow renders one read of the digest. Numbers are rounded to the
// digest's resolution (0.01 dB, 1 mm) so the file records behaviour, not
// last-ulp arithmetic.
func goldenRow(name string, seed int64, out *sim.Outcome) string {
	det := out.Detection
	centroid, rssDetect := "-", "-"
	if det.TagIndex >= 0 {
		o := det.Objects[det.TagIndex]
		centroid = "(" + fmtFixed(o.Centroid.X, 3) + "," + fmtFixed(o.Centroid.Y, 3) + ")"
		rssDetect = fmtFixed(o.MedianRSSDetectDBm, 2)
	}
	bits := out.Bits
	if bits == "" {
		bits = "-"
	}
	return fmt.Sprintf("%s seed=%d detected=%t bits=%s snr_db=%s points=%d tag_centroid=%s rss_detect_dbm=%s",
		name, seed, out.Detected, bits, fmtFixed(out.SNRdB, 2), len(det.MergedPoints), centroid, rssDetect)
}

// fmtFixed renders v with prec decimals, printing a value that rounds to
// zero without a sign so a sub-resolution sign flip is not a digest change.
func fmtFixed(v float64, prec int) string {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return fmt.Sprint(v)
	}
	s := strconv.FormatFloat(v, 'f', prec, 64)
	if strings.Trim(s, "-0.") == "" {
		return s[strings.IndexByte(s, '0'):]
	}
	return s
}

func TestGoldenDigest(t *testing.T) {
	var rows []string
	for _, gc := range goldenCases() {
		for seed := int64(1); seed <= 4; seed++ {
			cfg := gc.cfg
			cfg.Seed = seed
			out, err := sim.RunContext(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s seed %d: %v", gc.name, seed, err)
			}
			rows = append(rows, goldenRow(gc.name, seed, out))
			out.Span.Release()
		}
	}
	got := strings.Join(rows, "\n") + "\n"
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d rows)", goldenPath, len(rows))
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(rows) {
		t.Fatalf("digest has %d rows, grid produced %d (regenerate with -update-golden)", len(want), len(rows))
	}
	for i := range rows {
		if rows[i] != want[i] {
			t.Errorf("digest row %d changed:\n  want %s\n  got  %s", i+1, want[i], rows[i])
		}
	}
}
