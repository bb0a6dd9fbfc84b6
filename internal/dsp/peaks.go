package dsp

import "sort"

// Peak describes a local maximum found in a sampled spectrum.
type Peak struct {
	// Index is the sample index of the maximum.
	Index int
	// Pos is the refined, sub-bin position of the maximum obtained by
	// quadratic interpolation through the three samples around Index,
	// expressed in (possibly fractional) sample units.
	Pos float64
	// Value is the refined peak amplitude.
	Value float64
}

// FindPeaks locates local maxima of x that are at least minHeight tall and
// at least minSep samples away from any taller already-accepted peak.
// Peaks are returned sorted by descending Value.
func FindPeaks(x []float64, minHeight float64, minSep int) []Peak {
	var cands []Peak
	for i := 1; i < len(x)-1; i++ {
		if x[i] < minHeight {
			continue
		}
		if x[i] >= x[i-1] && x[i] > x[i+1] {
			pos, val := refinePeak(x, i)
			cands = append(cands, Peak{Index: i, Pos: pos, Value: val})
		}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].Value > cands[b].Value })
	var out []Peak
	for _, c := range cands {
		ok := true
		for _, p := range out {
			d := c.Index - p.Index
			if d < 0 {
				d = -d
			}
			if d < minSep {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, c)
		}
	}
	return out
}

// refinePeak fits a parabola through (i-1, i, i+1) and returns the refined
// position and amplitude of the vertex.
func refinePeak(x []float64, i int) (pos, val float64) {
	a, b, c := x[i-1], x[i], x[i+1]
	den := a - 2*b + c
	if den == 0 {
		return float64(i), b
	}
	d := 0.5 * (a - c) / den
	if d > 0.5 {
		d = 0.5
	} else if d < -0.5 {
		d = -0.5
	}
	return float64(i) + d, b - 0.25*(a-c)*d
}

// MaxAround returns the maximum value of x within +/- halfWidth samples of
// center (clamped to the slice bounds).
func MaxAround(x []float64, center, halfWidth int) float64 {
	lo := center - halfWidth
	hi := center + halfWidth
	if lo < 0 {
		lo = 0
	}
	if hi > len(x)-1 {
		hi = len(x) - 1
	}
	best := 0.0
	for i := lo; i <= hi; i++ {
		if x[i] > best {
			best = x[i]
		}
	}
	return best
}
