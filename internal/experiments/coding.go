package experiments

import (
	"context"
	"ros/internal/coding"
	"ros/internal/em"
)

// Fig10 regenerates Fig 10: the 4-bit example tag (M = 5, delta_c = 1.5
// lambda) — its layout, the multi-stack RCS across azimuth, and the RCS
// frequency spectrum with four coding peaks at 6, 7.5, 9, 10.5 lambda.
func Fig10(ctx context.Context) *Table {
	t := &Table{
		ID:      "Fig 10",
		Title:   "4-bit spatial code: layout and RCS frequency spectrum",
		Columns: []string{"quantity", "value"},
		Notes: "paper: coding stacks at 6, -7.5, 9, -10.5 lambda; 4 coding " +
			"peaks at those spacings; secondary peaks outside the coding band",
	}
	l, err := coding.NewLayout([]bool{true, true, true, true}, coding.DefaultDelta())
	if err != nil {
		panic(err)
	}
	lambda := em.Lambda79()
	for k := 1; k <= 4; k++ {
		t.AddRow("stack "+itoa(k)+" position (lambda)", f2(l.SlotPosition(k)/lambda))
	}
	lo, hi := l.CodingBand()
	t.AddRow("coding band (lambda)", f1(lo/lambda)+" .. "+f1(hi/lambda))
	t.AddRow("tag width (lambda)", f1(l.Width()/lambda))

	// Synthesize the far-field RCS over u and take its spectrum.
	pos := l.Positions()
	n := 1200
	us := make([]float64, n)
	rss := make([]float64, n)
	for i := range us {
		u := -0.6 + 1.2*float64(i)/float64(n-1)
		us[i] = u
		rss[i] = coding.MultiStackGain(pos, u, lambda)
	}
	spec, err := coding.ComputeSpectrum(us, rss, coding.SpectrumOptions{Lambda: lambda}, nil)
	if err != nil {
		panic(err)
	}
	floor := spec.AmplitudeAt(12*lambda, 0.1*lambda)
	for _, dk := range []float64{6, 7.5, 9, 10.5} {
		peak := spec.AmplitudeAt(dk*lambda, 0.3*lambda)
		t.AddRow("peak @"+f1(dk)+" lambda (dB over floor)", f1(em.DB(peak/floor)))
	}
	t.AddRow("secondary peak @13.5 lambda (dB over floor)",
		f1(em.DB(spec.AmplitudeAt(13.5*lambda, 0.3*lambda)/floor)))
	return t
}

// Capacity regenerates the Sec 5.3 capacity/tradeoff table: tag width,
// far-field distance and maximum vehicle speed versus coding bits.
func Capacity(ctx context.Context) *Table {
	t := &Table{
		ID:    "Capacity",
		Title: "Sec 5.3 encoding capacity model (delta_c = 1.5 lambda)",
		Columns: []string{"bits", "width (lambda)", "width (cm)",
			"far field (m)", "max speed @1kHz, 1.6m (m/s)"},
		Notes: "paper anchors: 4 bits -> 22.5 lambda wide, ~2.9 m far field, " +
			"~38.5 m/s; 6 bits -> 34.5 lambda, ~9 m far field (computed there " +
			"with the full width)",
	}
	lambda := em.Lambda79()
	for bits := 2; bits <= 8; bits++ {
		bs := make([]bool, bits)
		for i := range bs {
			bs[i] = true
		}
		l, err := coding.NewLayout(bs, coding.DefaultDelta())
		if err != nil {
			panic(err)
		}
		t.AddRow(
			itoa(bits),
			f1(l.Width()/lambda),
			f1(l.Width()*100),
			f2(l.FarFieldDistance(fc)),
			f1(l.MaxSpeed(1000, 1.62, fc)),
		)
	}
	return t
}
