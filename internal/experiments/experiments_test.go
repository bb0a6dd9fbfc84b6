package experiments

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"ros/internal/em"
)

// cellFloat parses a numeric table cell.
func cellFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", s, err)
	}
	return v
}

func TestTableString(t *testing.T) {
	tab := &Table{
		ID:      "Fig X",
		Title:   "demo",
		Columns: []string{"a", "b"},
		Notes:   "shape",
	}
	tab.AddRow("1", "2")
	s := tab.String()
	for _, want := range []string{"Fig X", "demo", "a", "b", "1", "2", "note: shape"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestRegistryCoversAllPaperArtifacts(t *testing.T) {
	want := []string{
		"Fig 3", "Fig 4a", "Fig 4b", "Fig 5", "Fig 6", "Fig 8",
		"Fig 10", "Fig 11", "Fig 13", "Fig 14", "Fig 15",
		"Fig 16a", "Fig 16b", "Fig 16c", "Fig 16d", "Fig 17", "Fig 18",
		"Link budget", "Capacity", "Pair bound",
		"Ablation: polarization switching", "Ablation: spectrum window",
		"Ablation: envelope detrending", "Ablation: RCS sampling density",
		"Ablation: ground multipath", "Ablation: wavelength assumption",
		"Ablation: ADC resolution",
		"Extension: circular polarization", "Extension: ASK modulation",
		"Extension: near-field focusing", "Extension: occlusion",
		"Extension: elevation monopulse", "Extension: localization",
		"Extension: rain", "Extension: commercial range",
		"Monte Carlo BER", "Chaos",
	}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Errorf("registry[%d] = %q, want %q", i, reg[i].ID, id)
		}
		if reg[i].Run == nil {
			t.Errorf("registry[%d] has nil generator", i)
		}
	}
}

func TestByID(t *testing.T) {
	if g := ByID("fig15"); g == nil || g.ID != "Fig 15" {
		t.Errorf("ByID(fig15) = %+v", g)
	}
	if g := ByID("LINK BUDGET"); g == nil {
		t.Error("ByID case-insensitivity broken")
	}
	if g := ByID("fig 99"); g != nil {
		t.Errorf("ByID(fig 99) = %+v, want nil", g)
	}
}

func TestFig03ShapePerPairOptimum(t *testing.T) {
	tab := Fig03(context.Background())
	last := tab.Rows[len(tab.Rows)-1]
	if last[0] != "best" || last[1] != "3" {
		t.Errorf("Fig 3 best pairs = %v, want 3", last)
	}
}

func TestFig04aShape(t *testing.T) {
	tab := Fig04a(context.Background())
	// Locate the broadside and 60-degree rows.
	var vaa0, ula0, vaa60, ula60 float64
	for _, r := range tab.Rows {
		switch r[0] {
		case "0.0":
			vaa0, ula0 = cellFloat(t, r[1]), cellFloat(t, r[2])
		case "60.0":
			vaa60, ula60 = cellFloat(t, r[1]), cellFloat(t, r[2])
		}
	}
	if vaa0-vaa60 > 8 {
		t.Errorf("VAA rolls off %g dB at 60 deg, want flat", vaa0-vaa60)
	}
	if ula0-ula60 < 15 {
		t.Errorf("ULA rolls off only %g dB at 60 deg, want specular", ula0-ula60)
	}
}

func TestFig05ShapeCrossPolGap(t *testing.T) {
	tab := Fig05(context.Background())
	for _, r := range tab.Rows {
		if r[0] != "0.0" {
			continue
		}
		psvaa := cellFloat(t, r[1])
		vaaLeak := cellFloat(t, r[2])
		if gap := psvaa - vaaLeak; gap < 9 || gap > 15 {
			t.Errorf("cross-pol gap = %g dB, want ~12", gap)
		}
	}
}

func TestLinkBudgetShape(t *testing.T) {
	tab := LinkBudget(context.Background())
	for _, r := range tab.Rows {
		if r[0] == "max range (m)" {
			ti := cellFloat(t, r[1])
			com := cellFloat(t, r[2])
			if ti < 6.4 || ti > 7.5 {
				t.Errorf("TI max range = %g, want ~6.9", ti)
			}
			if com < 48 || com > 57 {
				t.Errorf("commercial max range = %g, want ~52", com)
			}
		}
	}
}

func TestCapacityShape(t *testing.T) {
	tab := Capacity(context.Background())
	// Far field grows with bits; the 4-bit row matches the paper's 2.9 m.
	prev := 0.0
	for _, r := range tab.Rows {
		ff := cellFloat(t, r[3])
		if ff <= prev {
			t.Errorf("far field not monotone at %s bits", r[0])
		}
		prev = ff
		if r[0] == "4" {
			if w := cellFloat(t, r[1]); w != 22.5 {
				t.Errorf("4-bit width = %g lambda, want 22.5", w)
			}
			if ff < 2.7 || ff > 3.1 {
				t.Errorf("4-bit far field = %g, want ~2.9", ff)
			}
		}
	}
}

func TestFig10Shape(t *testing.T) {
	tab := Fig10(context.Background())
	for _, r := range tab.Rows {
		if strings.HasPrefix(r[0], "peak @") {
			if v := cellFloat(t, r[1]); v < 3 {
				t.Errorf("%s only %g dB over floor", r[0], v)
			}
		}
	}
}

func TestPairBoundShape(t *testing.T) {
	tab := PairBound(context.Background())
	found := false
	for _, r := range tab.Rows {
		if r[0] == "max antenna pairs" {
			found = true
			if r[1] != "3" {
				t.Errorf("max pairs = %s, want 3", r[1])
			}
		}
	}
	if !found {
		t.Error("pair-bound row missing")
	}
}

// TestFig15Shape asserts the distance sweep's shape (EXPERIMENTS.md E11):
// RSS falls monotonically with distance for every stack size, orders
// 8 < 16 < 32 modules at every distance, and every read decodes above
// 14 dB SNR.
func TestFig15Shape(t *testing.T) {
	tab := Fig15(context.Background())
	if len(tab.Rows) < 2 {
		t.Fatalf("Fig 15 has %d rows", len(tab.Rows))
	}
	// Columns: distance, RSS 8/16/32, SNR 8/16/32.
	prevRSS := make([]float64, 3)
	for i, r := range tab.Rows {
		d := cellFloat(t, r[0])
		for m := 0; m < 3; m++ {
			rss := cellFloat(t, r[1+m])
			if i > 0 && rss >= prevRSS[m] {
				t.Errorf("%s at %g m: RSS %g dBm does not fall from %g dBm", tab.Columns[1+m], d, rss, prevRSS[m])
			}
			if m > 0 && rss <= cellFloat(t, r[m]) {
				t.Errorf("at %g m: %s %g dBm not above %s %s dBm", d, tab.Columns[1+m], rss, tab.Columns[m], r[m])
			}
			prevRSS[m] = rss
			if snr := cellFloat(t, r[4+m]); snr <= 14 {
				t.Errorf("at %g m: %s = %g dB, want > 14", d, tab.Columns[4+m], snr)
			}
		}
	}
	if t.Failed() {
		t.Log("\n" + tab.String())
	}
}

// TestFig16cShape asserts the fog sweep's shape (EXPERIMENTS.md E14): every
// fog level decodes above the paper's 15 dB, and the fog model attenuates
// clear < light < heavy. SNR is not asserted to order by fog: fog costs
// ~0.2 dB at tag ranges, well inside the seed-to-seed spread of one read.
func TestFig16cShape(t *testing.T) {
	levels := []em.FogLevel{em.FogClear, em.FogLight, em.FogHeavy}
	for i := 1; i < len(levels); i++ {
		lo, hi := levels[i-1], levels[i]
		if lo.AttenuationDBPerMeter() >= hi.AttenuationDBPerMeter() {
			t.Errorf("%s attenuates %g dB/m, not below %s at %g dB/m",
				lo, lo.AttenuationDBPerMeter(), hi, hi.AttenuationDBPerMeter())
		}
	}
	tab := Fig16c(context.Background())
	if len(tab.Rows) != len(levels) {
		t.Fatalf("Fig 16c has %d rows, want %d", len(tab.Rows), len(levels))
	}
	// Columns: fog level, SNR.
	for i, r := range tab.Rows {
		if r[0] != levels[i].String() {
			t.Errorf("row %d is %q, want %q", i, r[0], levels[i])
		}
		if snr := cellFloat(t, r[1]); snr <= 15 {
			t.Errorf("%s: SNR %g dB, want > 15", r[0], snr)
		}
	}
	if t.Failed() {
		t.Log("\n" + tab.String())
	}
}
