package coding

import (
	"fmt"
	"math"

	"ros/internal/dsp"
)

// ASK multi-level spatial coding, the Sec 8 capacity extension: "The RCS
// levels of each encoding bit '1' can be adjusted by varying the number of
// PSVAAs within a stack. Multiple RCS levels can enable ASK modulation which
// can improve the encoding capacity by multi-folds."
//
// A slot's spectrum-peak amplitude is proportional to the mounted stack's
// field amplitude, i.e. to its module count, so quantized module counts
// carry log2(levels) bits per slot. The decoder normalizes by the strongest
// peak, so every codeword must contain at least one full-scale symbol (a
// pilot) — NewASKLayout enforces this.

// ASKLayout is a multi-level spatial code.
type ASKLayout struct {
	// Symbols holds one level per coding slot, 0..Levels-1; level 0 means
	// no stack mounted.
	Symbols []int
	// Levels is the alphabet size (a power of two >= 2).
	Levels int
	// Delta is the unit spacing in meters.
	Delta float64
}

// NewASKLayout builds a multi-level code. At least one symbol must be at
// full scale (Levels-1) to serve as the amplitude pilot.
func NewASKLayout(symbols []int, levels int, delta float64) (*ASKLayout, error) {
	if len(symbols) == 0 {
		return nil, fmt.Errorf("coding: empty ASK symbol string")
	}
	if levels < 2 || levels&(levels-1) != 0 {
		return nil, fmt.Errorf("coding: ASK levels must be a power of two >= 2, got %d", levels)
	}
	if delta <= 0 {
		return nil, fmt.Errorf("coding: non-positive unit spacing %g", delta)
	}
	pilot := false
	for i, s := range symbols {
		if s < 0 || s >= levels {
			return nil, fmt.Errorf("coding: symbol %d at slot %d outside 0..%d", s, i, levels-1)
		}
		if s == levels-1 {
			pilot = true
		}
	}
	if !pilot {
		return nil, fmt.Errorf("coding: ASK codeword needs at least one full-scale pilot symbol (%d)", levels-1)
	}
	return &ASKLayout{Symbols: append([]int(nil), symbols...), Levels: levels, Delta: delta}, nil
}

// M returns the maximum stack count (reference + slots).
func (l *ASKLayout) M() int { return len(l.Symbols) + 1 }

// BitsPerSlot returns log2(Levels).
func (l *ASKLayout) BitsPerSlot() int {
	b := 0
	for v := l.Levels; v > 1; v >>= 1 {
		b++
	}
	return b
}

// Capacity returns the total bits carried.
func (l *ASKLayout) Capacity() int { return len(l.Symbols) * l.BitsPerSlot() }

// slotPosition mirrors Layout.SlotPosition for the ASK geometry.
func (l *ASKLayout) slotPosition(k int) float64 {
	if k < 1 || k > len(l.Symbols) {
		panic(fmt.Sprintf("coding: ASK slot %d outside 1..%d", k, len(l.Symbols)))
	}
	sign := 1.0
	if k%2 == 0 {
		sign = -1
	}
	return sign * float64(l.M()+k-2) * l.Delta
}

// PositionsAndWeights returns the mounted stack positions and their relative
// field amplitudes (reference stack at full scale 1).
func (l *ASKLayout) PositionsAndWeights() (positions, weights []float64) {
	positions = []float64{0}
	weights = []float64{1}
	full := float64(l.Levels - 1)
	for k, s := range l.Symbols {
		if s == 0 {
			continue
		}
		positions = append(positions, l.slotPosition(k+1))
		weights = append(weights, float64(s)/full)
	}
	return
}

// WeightedMultiStackGain generalizes Eq 6 to per-stack field weights:
// |sum_k w_k exp(i*4*pi*d_k*u/lambda)|^2.
func WeightedMultiStackGain(positions, weights []float64, u, lambda float64) float64 {
	if len(positions) != len(weights) {
		panic(fmt.Sprintf("coding: %d positions vs %d weights", len(positions), len(weights)))
	}
	var re, im float64
	k := 4 * math.Pi * u / lambda
	for i, d := range positions {
		sin, cos := math.Sincos(k * d)
		re += weights[i] * cos
		im += weights[i] * sin
	}
	return re*re + im*im
}

// ASKDecoder recovers multi-level symbols from RCS samples.
type ASKDecoder struct {
	// Slots is the coding slot count.
	Slots int
	// Levels is the alphabet size.
	Levels int
	// Delta is the unit spacing in meters.
	Delta float64
	// Lambda is the radar wavelength.
	Lambda float64
	// Options pass through to ComputeSpectrum.
	Options SpectrumOptions
}

// NewASKDecoder builds a decoder for the given geometry.
func NewASKDecoder(slots, levels int, delta, lambda float64) (*ASKDecoder, error) {
	if slots < 1 {
		return nil, fmt.Errorf("coding: ASK decoder needs at least 1 slot, got %d", slots)
	}
	if levels < 2 || levels&(levels-1) != 0 {
		return nil, fmt.Errorf("coding: ASK levels must be a power of two >= 2, got %d", levels)
	}
	if delta <= 0 || lambda <= 0 {
		return nil, fmt.Errorf("coding: ASK decoder requires positive delta and lambda")
	}
	return &ASKDecoder{
		Slots:  slots,
		Levels: levels,
		Delta:  delta,
		Lambda: lambda,
		// DetrendDivisor 4: a wide envelope average preserves the relative
		// peak amplitudes the level decisions depend on.
		Options: SpectrumOptions{Lambda: lambda, Window: dsp.Hann, DetrendDivisor: 4},
	}, nil
}

// ASKResult is a decoded multi-level read.
type ASKResult struct {
	// Symbols are the recovered levels.
	Symbols []int
	// Amps are the measured normalized peak amplitudes per slot
	// (full scale = 1).
	Amps []float64
	// MarginDB is the worst-case decision margin: the gap between the
	// noisiest measured amplitude and its nearest decision boundary,
	// relative to the level spacing, in dB (higher is safer).
	MarginDB float64
}

// Decode recovers symbols from samples (u_i, rss_i).
func (d *ASKDecoder) Decode(u, rss []float64) (*ASKResult, error) {
	opts := d.Options
	if opts.Lambda == 0 {
		opts.Lambda = d.Lambda
	}
	spec, err := ComputeSpectrum(u, rss, opts, nil)
	if err != nil {
		return nil, err
	}
	m := d.Slots + 1
	amps := make([]float64, d.Slots)
	for k := 1; k <= d.Slots; k++ {
		pos := float64(m+k-2) * d.Delta
		amps[k-1] = spec.AmplitudeAt(pos, peakTolerance*d.Delta)
	}
	full, _ := dsp.Max(amps)
	if full <= 0 {
		return nil, fmt.Errorf("coding: no energy at any ASK slot")
	}

	symbols := make([]int, d.Slots)
	norm := make([]float64, d.Slots)
	step := 1 / float64(d.Levels-1)
	worst := math.Inf(1)
	for i, a := range amps {
		v := a / full
		norm[i] = v
		lvl := int(math.Round(v / step))
		if lvl < 0 {
			lvl = 0
		}
		if lvl > d.Levels-1 {
			lvl = d.Levels - 1
		}
		symbols[i] = lvl
		margin := step/2 - math.Abs(v-float64(lvl)*step)
		if margin < worst {
			worst = margin
		}
	}
	marginDB := math.Inf(-1)
	if worst > 0 {
		marginDB = 20 * math.Log10(worst/(step/2))
	}
	return &ASKResult{Symbols: symbols, Amps: norm, MarginDB: marginDB}, nil
}

// SymbolsEqual reports whether two symbol strings match.
func SymbolsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
