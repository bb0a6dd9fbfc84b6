package coding

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"ros/internal/roserr"
)

// FuzzDecode feeds the spectral decoder arbitrary (u, rss) sample series and
// asserts its contract: no panics or hangs, every failure is a typed error
// (ErrConfig or ErrUndecodable via errors.Is), and every success carries the
// right number of bits with finite noise statistics — a NaN smuggled through
// the resample/detrend/FFT chain must never surface as a "decoded" read.
func FuzzDecode(f *testing.F) {
	// Seed with a clean synthetic read so the fuzzer starts from the happy
	// path: a "1011" tag's multi-stack gain sampled across the pass.
	bits, _ := ParseBits("1011")
	layout, _ := NewLayout(bits, DefaultDelta())
	pos := layout.Positions()
	const lambda = 0.0037948
	clean := make([]byte, 0, 64*16)
	for i := 0; i < 64; i++ {
		u := -0.55 + 1.1*float64(i)/63
		var ub, rb [8]byte
		binary.LittleEndian.PutUint64(ub[:], math.Float64bits(u))
		binary.LittleEndian.PutUint64(rb[:], math.Float64bits(MultiStackGain(pos, u, lambda)))
		clean = append(clean, ub[:]...)
		clean = append(clean, rb[:]...)
	}
	f.Add(clean, uint8(4))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint8(2))
	// Non-finite RSS and duplicate-u corpus entries.
	nan := make([]byte, 16*16)
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint64(nan[i*16:], math.Float64bits(0.1))
		binary.LittleEndian.PutUint64(nan[i*16+8:], math.Float64bits(math.NaN()))
	}
	f.Add(nan, uint8(4))

	f.Fuzz(func(t *testing.T, data []byte, nbits uint8) {
		pairs := len(data) / 16
		if pairs > 512 {
			pairs = 512
		}
		u := make([]float64, pairs)
		rss := make([]float64, pairs)
		for i := 0; i < pairs; i++ {
			u[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*16:]))
			rss[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*16+8:]))
		}
		b := int(nbits)%8 + 1
		dec, err := NewDecoder(b, DefaultDelta(), lambda)
		if err != nil {
			t.Fatalf("NewDecoder(%d) rejected valid params: %v", b, err)
		}
		res, err := dec.Decode(u, rss, nil)
		if err != nil {
			if !errors.Is(err, roserr.ErrConfig) && !errors.Is(err, roserr.ErrUndecodable) {
				t.Fatalf("Decode returned untyped error %v", err)
			}
			return
		}
		if len(res.Bits) != b {
			t.Fatalf("decoded %d bits, want %d", len(res.Bits), b)
		}
		if len(res.PeakAmps) != b {
			t.Fatalf("got %d peak amps, want %d", len(res.PeakAmps), b)
		}
		allFinite := true
		for i := range u {
			if math.IsNaN(u[i]) || math.IsInf(u[i], 0) || math.IsNaN(rss[i]) || math.IsInf(rss[i], 0) {
				allFinite = false
				break
			}
		}
		if !allFinite {
			return // garbage in, bounded garbage out — the typed-error and shape checks above still ran
		}
		if math.IsNaN(res.NoiseMean) || math.IsNaN(res.NoiseStd) {
			t.Fatalf("finite input produced NaN noise stats: mean=%g std=%g", res.NoiseMean, res.NoiseStd)
		}
		for i, a := range res.PeakAmps {
			if math.IsNaN(a) {
				t.Fatalf("finite input produced NaN peak amp at slot %d", i)
			}
		}
	})
}
