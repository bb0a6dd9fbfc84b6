package coding

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"ros/internal/em"
)

func synthesizeASK(l *ASKLayout, uLo, uHi float64, n int, noise float64, rng *rand.Rand) (us, rss []float64) {
	lambda := em.Lambda79()
	pos, w := l.PositionsAndWeights()
	us = make([]float64, n)
	rss = make([]float64, n)
	for i := range us {
		u := uLo + (uHi-uLo)*float64(i)/float64(n-1)
		us[i] = u
		v := (1 - 0.3*u*u) * WeightedMultiStackGain(pos, w, u, lambda)
		if noise > 0 {
			v *= 1 + noise*rng.NormFloat64()
			if v < 0 {
				v = 0
			}
		}
		rss[i] = v
	}
	return
}

func TestNewASKLayoutValidation(t *testing.T) {
	if _, err := NewASKLayout(nil, 4, 1); err == nil {
		t.Error("empty symbols accepted")
	}
	if _, err := NewASKLayout([]int{3}, 3, 1); err == nil {
		t.Error("non-power-of-two levels accepted")
	}
	if _, err := NewASKLayout([]int{3}, 4, 0); err == nil {
		t.Error("zero delta accepted")
	}
	if _, err := NewASKLayout([]int{4}, 4, 1); err == nil {
		t.Error("out-of-range symbol accepted")
	}
	if _, err := NewASKLayout([]int{1, 2}, 4, 1); err == nil {
		t.Error("codeword without a full-scale pilot accepted")
	}
	if _, err := NewASKLayout([]int{3, 0, 2, 1}, 4, DefaultDelta()); err != nil {
		t.Errorf("valid codeword rejected: %v", err)
	}
}

func TestASKCapacity(t *testing.T) {
	l, err := NewASKLayout([]int{3, 0, 2, 1}, 4, DefaultDelta())
	if err != nil {
		t.Fatal(err)
	}
	if l.BitsPerSlot() != 2 {
		t.Errorf("bits per slot = %d, want 2", l.BitsPerSlot())
	}
	// Sec 8: ASK improves capacity by multi-folds: 4 slots now carry 8
	// bits instead of 4.
	if l.Capacity() != 8 {
		t.Errorf("capacity = %d, want 8", l.Capacity())
	}
}

func TestASKPositionsAndWeights(t *testing.T) {
	l, err := NewASKLayout([]int{3, 0, 2, 1}, 4, DefaultDelta())
	if err != nil {
		t.Fatal(err)
	}
	pos, w := l.PositionsAndWeights()
	// Reference + 3 mounted (slot 2 is level 0).
	if len(pos) != 4 || len(w) != 4 {
		t.Fatalf("positions %v weights %v", pos, w)
	}
	if w[0] != 1 {
		t.Errorf("reference weight = %g", w[0])
	}
	if math.Abs(w[1]-1) > 1e-12 || math.Abs(w[2]-2.0/3) > 1e-12 || math.Abs(w[3]-1.0/3) > 1e-12 {
		t.Errorf("weights = %v, want 1, 2/3, 1/3", w[1:])
	}
}

func TestASKDecodeClean(t *testing.T) {
	for _, symbols := range [][]int{
		{3, 0, 2, 1},
		{3, 3, 3, 3},
		{1, 3, 0, 2},
		{0, 0, 0, 3},
	} {
		l, err := NewASKLayout(symbols, 4, DefaultDelta())
		if err != nil {
			t.Fatal(err)
		}
		us, rss := synthesizeASK(l, -0.55, 0.55, 1100, 0, nil)
		d, err := NewASKDecoder(4, 4, DefaultDelta(), em.Lambda79())
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Decode(us, rss)
		if err != nil {
			t.Fatalf("%v: %v", symbols, err)
		}
		if !SymbolsEqual(res.Symbols, symbols) {
			t.Errorf("decoded %v, want %v (amps %v)", res.Symbols, symbols, res.Amps)
		}
	}
}

func TestASKDecodeNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	symbols := []int{3, 1, 2, 0}
	l, err := NewASKLayout(symbols, 4, DefaultDelta())
	if err != nil {
		t.Fatal(err)
	}
	us, rss := synthesizeASK(l, -0.55, 0.55, 1100, 0.08, rng)
	d, err := NewASKDecoder(4, 4, DefaultDelta(), em.Lambda79())
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Decode(us, rss)
	if err != nil {
		t.Fatal(err)
	}
	if !SymbolsEqual(res.Symbols, symbols) {
		t.Errorf("noisy decode %v, want %v", res.Symbols, symbols)
	}
}

func TestASKMarginShrinksWithMoreLevels(t *testing.T) {
	// Binary OOK tolerates more amplitude error than 4-level ASK.
	make2 := func(levels int, symbols []int) float64 {
		l, err := NewASKLayout(symbols, levels, DefaultDelta())
		if err != nil {
			t.Fatal(err)
		}
		us, rss := synthesizeASK(l, -0.55, 0.55, 1100, 0, nil)
		d, err := NewASKDecoder(len(symbols), levels, DefaultDelta(), em.Lambda79())
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Decode(us, rss)
		if err != nil {
			t.Fatal(err)
		}
		return res.MarginDB
	}
	m2 := make2(2, []int{1, 0, 1, 1})
	m4 := make2(4, []int{3, 0, 2, 1})
	if m4 >= m2 {
		t.Errorf("4-level margin %g dB >= binary margin %g dB", m4, m2)
	}
}

func TestASKDecoderErrors(t *testing.T) {
	if _, err := NewASKDecoder(0, 4, 1, 1); err == nil {
		t.Error("zero slots accepted")
	}
	if _, err := NewASKDecoder(4, 3, 1, 1); err == nil {
		t.Error("non-power-of-two levels accepted")
	}
	if _, err := NewASKDecoder(4, 4, 0, 1); err == nil {
		t.Error("zero delta accepted")
	}
}

func TestWeightedMultiStackGainReducesToUnweighted(t *testing.T) {
	lambda := em.Lambda79()
	pos := []float64{0, 6 * lambda, -7.5 * lambda}
	w := []float64{1, 1, 1}
	for _, u := range []float64{-0.4, 0, 0.3} {
		a := WeightedMultiStackGain(pos, w, u, lambda)
		b := MultiStackGain(pos, u, lambda)
		if math.Abs(a-b) > 1e-9 {
			t.Errorf("u=%g: weighted %g != unweighted %g", u, a, b)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	WeightedMultiStackGain(pos, w[:2], 0, lambda)
}

func TestHammingRoundTrip(t *testing.T) {
	for v := 0; v < 16; v++ {
		data := []bool{v&8 != 0, v&4 != 0, v&2 != 0, v&1 != 0}
		code, err := HammingEncode(data)
		if err != nil {
			t.Fatal(err)
		}
		back, corrected, err := HammingDecode(code)
		if err != nil {
			t.Fatal(err)
		}
		if corrected != 0 {
			t.Errorf("clean codeword %d reported correction at %d", v, corrected)
		}
		if !slices.Equal(back, data) {
			t.Errorf("round trip failed for %d: %v -> %v", v, data, back)
		}
	}
}

func TestHammingCorrectsEverySingleBitError(t *testing.T) {
	f := func(nibble uint8, pos uint8) bool {
		v := int(nibble % 16)
		p := int(pos % 7)
		data := []bool{v&8 != 0, v&4 != 0, v&2 != 0, v&1 != 0}
		code, err := HammingEncode(data)
		if err != nil {
			return false
		}
		code[p] = !code[p]
		back, corrected, err := HammingDecode(code)
		if err != nil {
			return false
		}
		return slices.Equal(back, data) && corrected == p+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHammingErrors(t *testing.T) {
	if _, err := HammingEncode([]bool{true}); err == nil {
		t.Error("short data accepted")
	}
	if _, _, err := HammingDecode([]bool{true}); err == nil {
		t.Error("short codeword accepted")
	}
}
