package experiments

import (
	"context"
	"math"

	"ros/internal/dsp"
	"ros/internal/em"
	"ros/internal/geom"
	"ros/internal/obs"
	"ros/internal/sim"
	"ros/internal/sweep"
)

// runPoints runs every drive-by of every point in one pass on the sweep
// pool, then hands each point's outcomes, in point order, to addRows, which
// formats that point's rows into t. A point may hold several drive-bys (a
// shaped/baseline pair, one read per stack size or seed). Experiment
// definitions are static, so a failed drive-by is a programmer error and
// panics; a cancelled ctx panics with the typed roserr.ErrReadCancelled,
// which cmd/rosbench recovers into a clean exit.
func runPoints[P any](ctx context.Context, t *Table, points []P, driveBys func(P) []sim.DriveBy,
	addRows func(t *Table, p P, outs []*sim.Outcome)) *Table {
	var cfgs []sim.DriveBy
	ends := make([]int, len(points))
	for i, p := range points {
		cfgs = append(cfgs, driveBys(p)...)
		ends[i] = len(cfgs)
	}
	outs, _, err := sweep.MapCtx(ctx, cfgs, 0, sim.RunContext)
	mustSucceed(t.ID, err)
	start := 0
	for i, p := range points {
		addRows(t, p, outs[start:ends[i]])
		start = ends[i]
	}
	return t
}

// mustSucceed panics with err, logged first with the table it cut short.
// The sweep pool has already logged each failing point with its index.
func mustSucceed(id string, err error) {
	if err != nil {
		obs.Logger().Error("experiments: reads failed", "table", id, "err", err)
		panic(err)
	}
}

// dbCell formats a decibel value, marking a lost read or a failed decode
// (-Inf) as "lost".
func dbCell(ok bool, v float64) string {
	if !ok || math.IsInf(v, -1) {
		return "lost"
	}
	return f1(v)
}

// snrCell formats a drive-by's decoding SNR.
func snrCell(o *sim.Outcome) string { return dbCell(o.Detected, o.SNRdB) }

// snrRow adds a point's row: its value and the SNR of its one drive-by.
func snrRow(t *Table, v float64, outs []*sim.Outcome) {
	t.AddRow(f1(v), snrCell(outs[0]))
}

// snrBitsRow is snrRow with the decoded bits appended.
func snrBitsRow(t *Table, v float64, outs []*sim.Outcome) {
	t.AddRow(f1(v), snrCell(outs[0]), outs[0].Bits)
}

// Fig14 regenerates Fig 14: RSS and decoding SNR vs elevation angle for
// beam-shaped tags and the unshaped baseline, radar fixed 3 m away.
func Fig14(ctx context.Context) *Table {
	return runPoints(ctx, &Table{
		ID:    "Fig 14",
		Title: "elevation misalignment, 3 m standoff: beam shaping vs baseline",
		Columns: []string{"elevation (deg)", "shaped RSS (dBm)", "baseline RSS (dBm)",
			"shaped SNR (dB)", "baseline SNR (dB)"},
		Notes: "paper: shaped tags stay > 15 dB SNR across 0-4 deg; the " +
			"baseline varies wildly and dips to ~10 dB",
	}, []float64{0, 1, 2, 3, 4}, func(deg float64) []sim.DriveBy {
		h := 3 * math.Tan(geom.Rad(deg))
		return []sim.DriveBy{
			{BeamShaped: true, HeightOffset: h, Seed: 140 + int64(deg*10)},
			{BeamShaped: false, HeightOffset: h, Seed: 140 + int64(deg*10)},
		}
	}, func(t *Table, deg float64, outs []*sim.Outcome) {
		shaped, base := outs[0], outs[1]
		t.AddRow(f1(deg), dbCell(shaped.Detected, shaped.MedianRSSdBm), dbCell(base.Detected, base.MedianRSSdBm),
			snrCell(shaped), snrCell(base))
	})
}

// Fig15 regenerates Fig 15: RSS and SNR vs radar-to-tag distance for tags
// with 8, 16 and 32 PSVAAs per stack.
func Fig15(ctx context.Context) *Table {
	return runPoints(ctx, &Table{
		ID:    "Fig 15",
		Title: "radar-to-tag distance sweep for 8/16/32-module stacks",
		Columns: []string{"distance (m)", "RSS 8 (dBm)", "RSS 16", "RSS 32",
			"SNR 8 (dB)", "SNR 16", "SNR 32"},
		Notes: "paper: RSS follows the d^-4 law; 8/16/32-module tags decodable " +
			"to ~4/5/6 m; the 32-module tag pays a near-field SNR penalty " +
			"(its far field is ~6 m), so 8/16 show statistically higher SNR",
	}, []float64{2, 3, 4, 5, 6}, func(d float64) []sim.DriveBy {
		var cfgs []sim.DriveBy
		for _, mod := range []int{8, 16, 32} {
			cfgs = append(cfgs, sim.DriveBy{
				BeamShaped: true, StackModules: mod, Standoff: d,
				Seed: 150 + int64(d*10) + int64(mod),
			})
		}
		return cfgs
	}, func(t *Table, d float64, outs []*sim.Outcome) {
		row := []string{f1(d)}
		for _, o := range outs {
			row = append(row, dbCell(o.Detected, o.MedianRSSdBm))
		}
		for _, o := range outs {
			row = append(row, snrCell(o))
		}
		t.AddRow(row...)
	})
}

// Fig16a regenerates Fig 16a: two tags side by side at spread angles of
// 10-30 degrees.
func Fig16a(ctx context.Context) *Table {
	return runPoints(ctx, &Table{
		ID:      "Fig 16a",
		Title:   "adjacent-tag interference vs spread angle (two tags, 3 m)",
		Columns: []string{"spread angle (deg)", "SNR (dB)"},
		Notes:   "paper: SNR only slightly increases with spread angle, staying well above 15 dB",
	}, []float64{10, 15, 20, 25, 30}, func(a float64) []sim.DriveBy {
		return []sim.DriveBy{{BeamShaped: true, SecondTagSpreadDeg: a, Seed: 160 + int64(a)}}
	}, snrRow)
}

// Fig16b regenerates Fig 16b: a second interrogating radar 1-3 m away.
func Fig16b(ctx context.Context) *Table {
	return runPoints(ctx, &Table{
		ID:      "Fig 16b",
		Title:   "adjacent-radar interference vs radar separation",
		Columns: []string{"separation (m)", "SNR (dB)"},
		Notes: "paper: SNR slightly increases with separation and stays above " +
			"15 dB even at 1 m (retroreflection suppresses cross-radar paths)",
	}, []float64{1, 1.5, 2, 2.5, 3}, func(s float64) []sim.DriveBy {
		return []sim.DriveBy{{BeamShaped: true, InterfererSeparation: s, Seed: 161 + int64(s*10)}}
	}, snrRow)
}

// Fig16c regenerates Fig 16c: decoding under fog.
func Fig16c(ctx context.Context) *Table {
	return runPoints(ctx, &Table{
		ID:      "Fig 16c",
		Title:   "decoding SNR under fog",
		Columns: []string{"fog level", "SNR (dB)"},
		Notes:   "paper: median SNR stays above 15 dB at every fog level",
	}, []em.FogLevel{em.FogClear, em.FogLight, em.FogHeavy}, func(fog em.FogLevel) []sim.DriveBy {
		return []sim.DriveBy{{BeamShaped: true, Fog: fog, Seed: 162 + int64(fog)}}
	}, func(t *Table, fog em.FogLevel, outs []*sim.Outcome) {
		t.AddRow(fog.String(), snrCell(outs[0]))
	})
}

// Fig16d regenerates Fig 16d: decoding vs relative self-tracking error.
func Fig16d(ctx context.Context) *Table {
	return runPoints(ctx, &Table{
		ID:      "Fig 16d",
		Title:   "decoding SNR vs relative tracking error",
		Columns: []string{"tracking error (%)", "SNR (dB)", "bits"},
		Notes: "paper: ~20 dB below 6% error, decreasing beyond as the coding " +
			"peaks distort",
	}, []float64{0, 2, 4, 6, 8, 10}, func(pct float64) []sim.DriveBy {
		var cfgs []sim.DriveBy
		for s := int64(0); s < 3; s++ {
			cfgs = append(cfgs, sim.DriveBy{BeamShaped: true, TrackingError: pct / 100, Seed: 163 + s})
		}
		return cfgs
	}, func(t *Table, pct float64, outs []*sim.Outcome) {
		// Median over three drift realizations (the paper reports
		// medians across repeated reads).
		var snrs []float64
		bits := ""
		for _, out := range outs {
			if out.Detected && !math.IsInf(out.SNRdB, -1) {
				snrs = append(snrs, out.SNRdB)
				bits = out.Bits
			}
		}
		if len(snrs) == 0 {
			t.AddRow(f1(pct), "lost", "")
			return
		}
		t.AddRow(f1(pct), f1(dsp.Median(snrs)), bits)
	})
}

// Fig17 regenerates Fig 17: decoding vs the angular field of view over which
// the RCS is sampled.
func Fig17(ctx context.Context) *Table {
	return runPoints(ctx, &Table{
		ID:      "Fig 17",
		Title:   "decoding SNR vs angular field of view",
		Columns: []string{"FoV (deg)", "SNR (dB)", "bits"},
		Notes: "paper: SNR rises from 20 to ~80 deg and dips slightly at 100 " +
			"(samples beyond the radar's 60 deg antenna FoV are noise); 60 deg " +
			"suffices",
	}, []float64{20, 40, 60, 80, 100}, func(fov float64) []sim.DriveBy {
		return []sim.DriveBy{{BeamShaped: true, FoVDeg: fov, Seed: 170}}
	}, snrBitsRow)
}

// Fig18 regenerates Fig 18: decoding vs vehicle speed.
func Fig18(ctx context.Context) *Table {
	return runPoints(ctx, &Table{
		ID:      "Fig 18",
		Title:   "decoding SNR vs vehicle speed",
		Columns: []string{"speed (mph)", "SNR (dB)", "bits"},
		Notes: "paper: SNR varies with driving dynamics but consistently " +
			"exceeds 14 dB; Doppler is negligible",
	}, []float64{10, 15, 20, 25, 30}, func(mph float64) []sim.DriveBy {
		return []sim.DriveBy{{BeamShaped: true, Speed: geom.MPH(mph), Seed: 180 + int64(mph)}}
	}, snrBitsRow)
}

// LinkBudget regenerates the Sec 5.3 / Sec 8 link-budget table.
func LinkBudget(ctx context.Context) *Table {
	t := &Table{
		ID:      "Link budget",
		Title:   "Sec 5.3 link budget and maximum reading range",
		Columns: []string{"quantity", "TI IWR1443", "commercial", "paper"},
		Notes:   "paper: -62 dBm floor and 6.9 m for the TI radar; 52 m for a commercial radar",
	}
	ti := em.TIRadar()
	com := em.CommercialRadar()
	t.AddRow("EIRP (dBm)", f1(ti.EIRPdBm), f1(com.EIRPdBm), "21 / 50")
	t.AddRow("noise figure (dB)", f1(ti.NoiseFigureDB), f1(com.NoiseFigureDB), "15 / 9")
	t.AddRow("Rx gain (dB)", f1(ti.RxGainDB()), f1(com.RxGainDB()), "55")
	t.AddRow("noise floor (dBm)", f1(ti.NoiseFloorDBm()), f1(com.NoiseFloorDBm()), "-62 (TI)")
	t.AddRow("tag RCS (dBsm)", f1(em.TagRCS32StackDBsm), f1(em.TagRCS32StackDBsm), "-23")
	t.AddRow("max range (m)",
		f2(ti.MaxRange(em.TagRCS32StackDBsm, fc)),
		f2(com.MaxRange(em.TagRCS32StackDBsm, fc)),
		"6.9 / 52")
	return t
}
