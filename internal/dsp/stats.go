package dsp

import "math"

// Mean returns the arithmetic mean of x, or 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range x {
		sum += v
	}
	return sum / float64(len(x))
}

// Variance returns the population variance of x, or 0 for fewer than two
// samples.
func Variance(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	sum := 0.0
	for _, v := range x {
		d := v - m
		sum += d * d
	}
	return sum / float64(len(x))
}

// StdDev returns the population standard deviation of x.
func StdDev(x []float64) float64 {
	return math.Sqrt(Variance(x))
}

// Median returns the median of the finite samples of x, or -Inf when none
// are finite. x is not modified.
func Median(x []float64) float64 {
	return Percentile(x, 50)
}

// MedianInPlace is Median without the defensive copy; see PercentileInPlace
// for how x is disturbed.
func MedianInPlace(x []float64) float64 {
	return PercentileInPlace(x, 50)
}

// Percentile returns the p-th percentile (0..100) of the finite samples of
// x using linear interpolation between closest ranks. x is not modified.
//
// Non-finite samples are dropped before ranking: a NaN is unordered (a
// comparison sort fed NaNs returns an arbitrary element — the pre-fix code
// could report NaN or any sample as the median of an otherwise clean
// window), and an injected ±Inf would otherwise pin the extreme ranks.
// When no finite sample survives — including an empty slice — the result
// is -Inf rather than 0: the callers aggregate received power in dBm,
// where 0 is a real (very strong) level but -Inf reads unambiguously as
// "no signal". A NaN p returns NaN.
func Percentile(x []float64, p float64) float64 {
	s := make([]float64, len(x))
	copy(s, x)
	return PercentileInPlace(s, p)
}

// PercentileInPlace is Percentile for callers that own x as scratch: it
// compacts the finite samples to a reordered prefix of x (partial
// quickselect order) instead of copying. Sample values are preserved, only
// their positions change. The selection is rank-exact — the same order
// statistics a full sort would produce — but runs O(n) instead of
// O(n log n), which matters to the per-frame noise-floor estimate on the
// point-cloud path.
func PercentileInPlace(x []float64, p float64) float64 {
	if math.IsNaN(p) {
		return math.NaN()
	}
	// Compact the finite samples: v-v is 0 for finite v and NaN for both
	// NaN and ±Inf.
	n := 0
	for _, v := range x {
		if v-v == 0 {
			x[n] = v
			n++
		}
	}
	if n == 0 {
		return math.Inf(-1)
	}
	s := x[:n]
	if p <= 0 {
		m, _ := Min(s)
		return m
	}
	if p >= 100 {
		m, _ := Max(s)
		return m
	}
	pos := p / 100 * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	v := selectKth(s, lo)
	if frac == 0 {
		return v
	}
	// After selectKth, s[lo+1:] holds exactly the ranks above lo, so the
	// interpolation partner (rank lo+1) is its minimum.
	w, _ := Min(s[lo+1:])
	return v*(1-frac) + w*frac
}

// selectKth places the k-th smallest element of s at index k (with smaller
// elements before it and larger after) and returns it: Hoare partitions
// around a median-of-three pivot, recursing only into the side holding k,
// and finishes small ranges by insertion sort. s must be NaN-free.
func selectKth(s []float64, k int) float64 {
	lo, hi := 0, len(s)-1
	for lo < hi {
		if hi-lo < 12 {
			part := s[lo : hi+1]
			for i := 1; i < len(part); i++ {
				for j := i; j > 0 && part[j] < part[j-1]; j-- {
					part[j], part[j-1] = part[j-1], part[j]
				}
			}
			break
		}
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < s[lo] {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if s[hi] < s[lo] {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if s[hi] < s[mid] {
			s[hi], s[mid] = s[mid], s[hi]
		}
		pivot := s[mid]
		i, j := lo-1, hi+1
		for {
			for {
				i++
				if s[i] >= pivot {
					break
				}
			}
			for {
				j--
				if s[j] <= pivot {
					break
				}
			}
			if i >= j {
				break
			}
			s[i], s[j] = s[j], s[i]
		}
		if k <= j {
			hi = j
		} else {
			lo = j + 1
		}
	}
	return s[k]
}

// Max returns the maximum of x and its index, or (0, -1) for an empty slice.
func Max(x []float64) (float64, int) {
	if len(x) == 0 {
		return 0, -1
	}
	best, idx := x[0], 0
	for i, v := range x {
		if v > best {
			best, idx = v, i
		}
	}
	return best, idx
}

// Min returns the minimum of x and its index, or (0, -1) for an empty slice.
func Min(x []float64) (float64, int) {
	if len(x) == 0 {
		return 0, -1
	}
	best, idx := x[0], 0
	for i, v := range x {
		if v < best {
			best, idx = v, i
		}
	}
	return best, idx
}
