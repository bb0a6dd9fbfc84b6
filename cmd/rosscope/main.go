// Command rosscope renders the inner life of one drive-by in the terminal —
// the ASCII version of the paper's Fig 11 panels: the merged point cloud
// with clusters, the tag's RSS samples across u = cos(theta), and the
// decoded RCS frequency spectrum with the coding slots marked.
//
// Usage:
//
//	rosscope [-bits 1111] [-distance 3] [-speed 10] [-clutter] [-seed 1]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"ros/internal/coding"
	"ros/internal/em"
	"ros/internal/geom"
	"ros/internal/sim"
	"ros/internal/viz"
)

func main() {
	bits := flag.String("bits", "1111", "bits encoded on the tag")
	distance := flag.Float64("distance", 3, "closest radar-to-tag distance (m)")
	speedMPH := flag.Float64("speed", 10, "vehicle speed (mph)")
	clutter := flag.Bool("clutter", true, "surround the tag with roadside objects")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	out, err := sim.RunContext(context.Background(), sim.DriveBy{
		Bits:        *bits,
		BeamShaped:  true,
		Standoff:    *distance,
		Speed:       geom.MPH(*speedMPH),
		WithClutter: *clutter,
		Seed:        *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rosscope:", err)
		os.Exit(1)
	}

	// Panel 1: merged point cloud (Fig 11b).
	var pts []viz.Point
	for _, p := range out.Detection.MergedPoints {
		pts = append(pts, viz.Point{X: p.Pos.X, Y: p.Pos.Y})
	}
	for i, o := range out.Detection.Objects {
		mark := byte('1' + i)
		if o.IsTag {
			mark = 'T'
		}
		pts = append(pts, viz.Point{X: o.Centroid.X, Y: o.Centroid.Y, Mark: mark})
	}
	fmt.Print(viz.Scatter("merged point cloud (T = classified tag, digits = other clusters)",
		pts, -4, 4, -1.5, 1.5, 64, 12))
	fmt.Println()
	for i, o := range out.Detection.Objects {
		tag := " "
		if o.IsTag {
			tag = "T"
		}
		fmt.Printf("  [%c]%s cluster at (%+.2f, %+.2f): %d pts, size %.3f m, RSS loss %.1f dB\n",
			'1'+i, tag, o.Centroid.X, o.Centroid.Y, o.Points, o.Extent, o.RSSLossDB)
	}
	fmt.Println()

	if !out.Detected {
		fmt.Println("tag not detected; no decode panels")
		os.Exit(1)
	}

	// Panel 2: RSS over u (Fig 11c's tag trace, path-loss compensated),
	// plotted in dB relative to the strongest sample.
	peak := 0.0
	for _, v := range out.Detection.TagRSS {
		if v > peak {
			peak = v
		}
	}
	rel := make([]float64, len(out.Detection.TagRSS))
	for i, v := range out.Detection.TagRSS {
		rel[i] = em.DB(v / peak)
		if rel[i] < -40 {
			rel[i] = -40
		}
	}
	fmt.Print(viz.Line(fmt.Sprintf("tag RCS across u = cos(theta), dB rel. peak  (%d frames)", out.Samples),
		rel, 64, 10))
	fmt.Println()

	// Panel 3: RCS frequency spectrum with the coding slots (Fig 11d).
	if out.Decode == nil {
		// Detected but undecodable: out.Decode is nil, so there is no
		// spectrum panel to draw (dereferencing it used to crash here).
		fmt.Println("tag detected but undecodable; no spectrum panel")
		os.Exit(1)
	}
	spec := out.Decode.Spectrum
	lambda := em.Lambda79()
	var labels []string
	var values []float64
	for d := 3.0; d <= 14; d += 0.5 {
		labels = append(labels, fmt.Sprintf("%5.1f lambda", d))
		values = append(values, spec.AmplitudeAt(d*lambda, 0.2*lambda))
	}
	fmt.Print(viz.Bars("RCS frequency spectrum (coding slots at 6, 7.5, 9, 10.5 lambda)",
		labels, values, 48))
	fmt.Println()
	fmt.Printf("decoded bits %q", out.Bits)
	if len(out.Bits) == 4 {
		if _, err := coding.ParseBits(out.Bits); err == nil {
			fmt.Printf(" (SNR %.1f dB, BER %.2g)", out.SNRdB, out.BER)
		}
	}
	fmt.Println()
}
