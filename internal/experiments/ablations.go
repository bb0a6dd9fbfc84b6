package experiments

import (
	"context"
	"math"

	"ros/internal/coding"
	"ros/internal/dsp"
	"ros/internal/em"
	"ros/internal/radar"
	"ros/internal/sim"
)

// Ablations of the design choices DESIGN.md calls out, beyond the paper's
// own figures: each quantifies how much one mechanism contributes to the
// working system.

// decodeWith re-decodes a pass's tag samples with custom spectrum options.
func decodeWith(out *sim.Outcome, window dsp.Window, disableDetrend bool) float64 {
	if !out.Detected || len(out.Detection.TagU) < 16 {
		return math.Inf(-1)
	}
	dec, err := coding.NewDecoder(4, coding.DefaultDelta(), em.Lambda79())
	if err != nil {
		panic(err)
	}
	dec.Options.Window = window
	dec.Options.DisableDetrend = disableDetrend
	res, err := dec.Decode(out.Detection.TagU, out.Detection.TagRSS, nil)
	if err != nil {
		return math.Inf(-1)
	}
	return res.SNRdB
}

// AblationPolSwitch quantifies Sec 4.2's claim that "the benefit from
// polarization switching is more than 14 dB": decoding with the PSVAA
// against the same pass with a plain (co-polarized) VAA tag amid clutter.
func AblationPolSwitch(ctx context.Context) *Table {
	return runPoints(ctx, &Table{
		ID:      "Ablation: polarization switching",
		Title:   "decoding with vs without the PSVAA's polarization switching (clutter present)",
		Columns: []string{"configuration", "SNR (dB)", "bits"},
		Notes: "paper Sec 4.2: switching costs 6 dB of RCS but buys > 14 dB " +
			"of clutter suppression — a clear net win near clutter",
	}, []int64{500}, func(seed int64) []sim.DriveBy {
		return []sim.DriveBy{
			{BeamShaped: true, WithClutter: true, Seed: seed},
			{BeamShaped: true, WithClutter: true, DisablePolSwitching: true, Seed: seed},
		}
	}, func(t *Table, _ int64, outs []*sim.Outcome) {
		on, off := outs[0], outs[1]
		t.AddRow("PSVAA (switching on)", snrCell(on), on.Bits)
		t.AddRow("plain VAA (switching off)", snrCell(off), off.Bits)
		if on.Detected && off.Detected && !math.IsInf(off.SNRdB, -1) {
			t.AddRow("switching benefit (dB)", f1(on.SNRdB-off.SNRdB), "")
		}
	})
}

// AblationWindow compares spectral windows in the decoder.
func AblationWindow(ctx context.Context) *Table {
	return runPoints(ctx, &Table{
		ID:      "Ablation: spectrum window",
		Title:   "decoder window choice on the same pass",
		Columns: []string{"window", "SNR (dB)"},
		Notes: "rectangular leaks strong coding peaks into neighbouring " +
			"slots; Hann (the default) balances leakage and resolution",
	}, []int64{501}, func(seed int64) []sim.DriveBy {
		return []sim.DriveBy{{BeamShaped: true, WithClutter: true, Seed: seed}}
	}, func(t *Table, _ int64, outs []*sim.Outcome) {
		for _, w := range []dsp.Window{dsp.Rectangular, dsp.Hann, dsp.Hamming, dsp.Blackman} {
			t.AddRow(w.String(), dbCell(true, decodeWith(outs[0], w, false)))
		}
	})
}

// AblationDetrend compares decoding with and without stripping the
// single-stack envelope r_T(theta) before the FFT (Sec 5.1/6).
func AblationDetrend(ctx context.Context) *Table {
	return runPoints(ctx, &Table{
		ID:      "Ablation: envelope detrending",
		Title:   "decoding with vs without r_T(theta) envelope removal",
		Columns: []string{"configuration", "SNR (dB)"},
		Notes: "the slowly varying single-stack envelope leaks low-frequency " +
			"energy across the coding band unless removed (Sec 6's " +
			"normalization step)",
	}, []int64{502}, func(seed int64) []sim.DriveBy {
		return []sim.DriveBy{{BeamShaped: true, Seed: seed}}
	}, func(t *Table, _ int64, outs []*sim.Outcome) {
		t.AddRow("with detrending", dbCell(true, decodeWith(outs[0], dsp.Hann, false)))
		t.AddRow("without detrending", dbCell(true, decodeWith(outs[0], dsp.Hann, true)))
	})
}

// AblationSampling sweeps the per-pass frame budget against Eq 9's Nyquist
// requirement.
func AblationSampling(ctx context.Context) *Table {
	return runPoints(ctx, &Table{
		ID:      "Ablation: RCS sampling density",
		Title:   "decoding SNR vs frames per pass (Eq 9 Nyquist bound)",
		Columns: []string{"frames", "SNR (dB)", "bits"},
		Notes: "the fastest coding tone needs ~60 samples over the pass " +
			"(Sec 5.3); oversampling beyond that buys averaging gain",
	}, []int{48, 96, 192, 280}, func(frames int) []sim.DriveBy {
		return []sim.DriveBy{{BeamShaped: true, FrameBudget: frames, Seed: 503}}
	}, func(t *Table, frames int, outs []*sim.Outcome) {
		t.AddRow(itoa(frames), snrCell(outs[0]), outs[0].Bits)
	})
}

// AblationGroundMultipath adds the two-ray road bounce the paper's
// evaluation setup avoids (tags on tripods, short ranges) and shows the
// frequency-domain code shrugging it off.
func AblationGroundMultipath(ctx context.Context) *Table {
	return runPoints(ctx, &Table{
		ID:      "Ablation: ground multipath",
		Title:   "two-ray road-surface bounce on vs off",
		Columns: []string{"distance (m)", "flat channel", "with ground bounce"},
		Notes: "the bounce adds a slowly varying interference envelope; " +
			"detrending strips most of it so decoding usually survives with a " +
			"few dB penalty, though a deep bounce null can still defeat " +
			"detection at unlucky geometries",
	}, []float64{2, 3, 4}, func(d float64) []sim.DriveBy {
		return []sim.DriveBy{
			{BeamShaped: true, Standoff: d, Seed: 800 + int64(d)},
			{BeamShaped: true, Standoff: d, GroundMultipath: true, Seed: 800 + int64(d)},
		}
	}, func(t *Table, d float64, outs []*sim.Outcome) {
		t.AddRow(f1(d), snrCell(outs[0]), snrCell(outs[1]))
	})
}

// AblationADC sweeps the baseband converter resolution; 0 bits is the
// ideal converter.
func AblationADC(ctx context.Context) *Table {
	return runPoints(ctx, &Table{
		ID:      "Ablation: ADC resolution",
		Title:   "decoding SNR vs baseband ADC bits",
		Columns: []string{"ADC bits", "SNR (dB)", "bits"},
		Notes: "the TI radar digitizes at 12+ bits; the spatial code keeps " +
			"working down to coarse converters because the coding information " +
			"lives in peak positions, not fine amplitudes",
	}, []int{4, 6, 8, 12, 0}, func(bits int) []sim.DriveBy {
		cfg := radar.TI1443()
		cfg.ADCBits = bits
		return []sim.DriveBy{{BeamShaped: true, Radar: &cfg, Seed: 801}}
	}, func(t *Table, bits int, outs []*sim.Outcome) {
		label := itoa(bits)
		if bits == 0 {
			label = "ideal"
		}
		t.AddRow(label, snrCell(outs[0]), outs[0].Bits)
	})
}

// AblationWavelength probes the decoder's sensitivity to an incorrect
// wavelength assumption: the spacing axis of the RCS spectrum scales with
// lambda, so a mis-assumed carrier shifts every coding peak off its slot.
func AblationWavelength(ctx context.Context) *Table {
	return runPoints(ctx, &Table{
		ID:      "Ablation: wavelength assumption",
		Title:   "decoding with a wrong carrier-frequency assumption",
		Columns: []string{"assumed carrier (GHz)", "SNR (dB)", "bits"},
		Notes: "peaks live at 2*d/lambda cycles per unit u; a ~3 GHz (4%) " +
			"carrier error shifts the 10.5-lambda peak by ~0.4 lambda, " +
			"half a slot tolerance — the decoder must know the band it reads",
	}, []int64{810}, func(seed int64) []sim.DriveBy {
		return []sim.DriveBy{{BeamShaped: true, Seed: seed}}
	}, func(t *Table, _ int64, outs []*sim.Outcome) {
		out := outs[0]
		if !out.Detected {
			t.AddRow("n/a", "lost", "")
			return
		}
		for _, ghz := range []float64{73, 76, 79, 82, 85} {
			dec, err := coding.NewDecoder(4, coding.DefaultDelta(), em.C/(ghz*1e9))
			if err != nil {
				panic(err)
			}
			res, err := dec.Decode(out.Detection.TagU, out.Detection.TagRSS, nil)
			if err != nil {
				t.AddRow(f1(ghz), "lost", "")
				continue
			}
			t.AddRow(f1(ghz), f1(res.SNRdB), coding.BitsString(res.Bits))
		}
	})
}
