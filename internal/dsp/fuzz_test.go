package dsp

import (
	"encoding/binary"
	"math"
	"math/cmplx"
	"testing"
)

// floatsFromBytes decodes the fuzzer's byte soup into float64 samples,
// clamping the count so a large input cannot stall the harness.
func floatsFromBytes(data []byte, maxN int) []float64 {
	n := len(data) / 8
	if n > maxN {
		n = maxN
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
	}
	return out
}

// FuzzPercentile asserts the estimator's contract on arbitrary inputs: it
// never panics, ranks only the finite samples (NaN and ±Inf are dropped),
// returns -Inf exactly when no finite sample survives, stays within
// [min, max] of the finite samples otherwise, never fabricates a NaN (for a
// non-NaN p), and leaves the input slice untouched (the doc promises x is
// not modified).
func FuzzPercentile(f *testing.F) {
	f.Add([]byte{}, 50.0)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, 0.0)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, 100.0)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xf0, 0x7f}, 50.0) // +Inf sample
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0xf0, 0x7f}, -3.5)                   // NaN sample
	// NaN mixed with finite samples: the pre-fix sort could report the NaN
	// (or an arbitrary sample) as the median of the clean values.
	f.Add([]byte{
		1, 0, 0, 0, 0, 0, 0xf0, 0x7f, // NaN
		0, 0, 0, 0, 0, 0, 0xf0, 0x3f, // 1.0
		0, 0, 0, 0, 0, 0, 0, 0x40, // 2.0
		0, 0, 0, 0, 0, 0, 8, 0x40, // 3.0
	}, 50.0)
	f.Fuzz(func(t *testing.T, data []byte, p float64) {
		x := floatsFromBytes(data, 1024)
		orig := append([]float64(nil), x...)
		got := Percentile(x, p)
		for i := range x {
			if x[i] != orig[i] && !(math.IsNaN(x[i]) && math.IsNaN(orig[i])) {
				t.Fatalf("Percentile mutated input at %d: %g -> %g", i, orig[i], x[i])
			}
		}
		if math.IsNaN(p) {
			if !math.IsNaN(got) {
				t.Fatalf("NaN p returned %g, want NaN", got)
			}
			return
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		finite := 0
		for _, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			finite++
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if finite == 0 {
			if !math.IsInf(got, -1) {
				t.Fatalf("no finite samples returned %g, want -Inf", got)
			}
			return
		}
		if math.IsNaN(got) {
			t.Fatalf("Percentile(%v, %g) fabricated NaN", x, p)
		}
		if got < lo || got > hi {
			t.Fatalf("Percentile(%v, %g) = %g outside finite range [%g, %g]", x, p, got, lo, hi)
		}
	})
}

// FuzzPlanRoundTrip asserts that a Rectangular plan's Inverse undoes its
// Forward for every plan size — size maps onto the powers of two from 8 to
// 4096 — without panics, hangs, or NaN fabrication.
func FuzzPlanRoundTrip(f *testing.F) {
	f.Add(uint16(0), []byte{1, 2, 3, 4, 5, 6, 7, 8}) // 8 points
	f.Add(uint16(5), []byte{9, 8, 7, 6})             // 256 points
	f.Add(uint16(9), []byte{0xaa, 0xbb})             // 4096 points
	f.Add(uint16(1), []byte{1, 0, 0, 1})             // 16 points
	f.Fuzz(func(t *testing.T, size uint16, data []byte) {
		n := 8 << (size % 10)
		src := make([]complex128, n)
		for i := range src {
			// Bounded real samples derived from the corpus bytes: the
			// round-trip tolerance below assumes sane magnitudes (the FFT
			// of ±1e300 inputs legitimately overflows).
			var b byte
			if len(data) > 0 {
				b = data[i%len(data)]
			}
			src[i] = complex(float64(b)/255-0.5, float64(i%7)/7-0.5)
		}
		p := NewPlan(n, Rectangular)
		freq := make([]complex128, n)
		back := make([]complex128, n)
		p.Forward(freq, src)
		p.Inverse(back, freq)
		for i := range src {
			if d := cmplx.Abs(back[i] - src[i]); d > 1e-9 || math.IsNaN(d) {
				t.Fatalf("n=%d: round trip diverges at %d: %v vs %v (|d|=%g)", n, i, back[i], src[i], d)
			}
		}
	})
}

// FuzzResample asserts the non-uniform resampler never panics and produces
// finite output from finite input — it feeds the decoder directly, so NaN
// propagation here would poison the spectrum.
func FuzzResample(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint8(16))
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 1, 2, 3, 4}, uint8(64))
	f.Fuzz(func(t *testing.T, data []byte, gridBits uint8) {
		vals := floatsFromBytes(data, 256)
		if len(vals) < 2 {
			return
		}
		u := make([]float64, len(vals))
		y := make([]float64, len(vals))
		allFinite := true
		for i, v := range vals {
			u[i] = float64(i) / float64(len(vals)-1)
			y[i] = v
			if math.IsNaN(v) || math.IsInf(v, 0) {
				allFinite = false
			}
		}
		n := int(gridBits)%256 + 2
		grid, out, err := Resample(u, y, 0, 1, n)
		if err != nil {
			return
		}
		if len(grid) != n || len(out) != n {
			t.Fatalf("Resample returned %d/%d points, want %d", len(grid), len(out), n)
		}
		if !allFinite {
			return
		}
		for i, v := range out {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("Resample fabricated non-finite %g at %d from finite input", v, i)
			}
		}
	})
}
