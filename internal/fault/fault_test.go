package fault

import (
	"errors"
	"math"
	"math/cmplx"
	"testing"
	"time"

	"ros/internal/roserr"
)

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"drop rate above 1", Config{FrameDropRate: 1.5}},
		{"negative drop rate", Config{FrameDropRate: -0.1}},
		{"NaN drop rate", Config{FrameDropRate: math.NaN()}},
		{"corrupt rate above 1", Config{CorruptRate: 2}},
		{"burst rate below 0", Config{BurstRate: -1}},
		{"panic rate above 1", Config{PanicRate: 1.01}},
		{"delay rate above 1", Config{DelayRate: 7}},
		{"corrupt fraction above 1", Config{CorruptFraction: 1.2}},
		{"burst fraction negative", Config{BurstFraction: -0.5}},
		{"negative burst amplitude", Config{BurstAmplitude: -1e-6}},
		{"negative delay", Config{Delay: -time.Millisecond}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %+v", tc.cfg)
			}
			if !errors.Is(err, roserr.ErrConfig) {
				t.Errorf("err = %v, want ErrConfig", err)
			}
			if _, err := New(tc.cfg); err == nil {
				t.Error("New accepted the invalid config")
			}
		})
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
	ok := Config{Seed: 3, FrameDropRate: 0.2, CorruptRate: 1, BurstRate: 0.5,
		PanicRate: 0.01, DelayRate: 0.1, Delay: time.Millisecond}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestNilInjectorInjectsNothing(t *testing.T) {
	var in *Injector
	for i := 0; i < 100; i++ {
		if in.Frame(i) != (FrameFaults{}) {
			t.Fatalf("nil injector faulted frame %d", i)
		}
	}
}

func TestDecisionsDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, FrameDropRate: 0.3, CorruptRate: 0.3, BurstRate: 0.3,
		PanicRate: 0.1, DelayRate: 0.2}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := New(cfg)
	for i := 0; i < 500; i++ {
		fa, fb := a.Frame(i), b.Frame(i)
		if fa.Drop != fb.Drop || fa.Panic != fb.Panic || fa.Corrupt != fb.Corrupt ||
			fa.Burst != fb.Burst || fa.Delay != fb.Delay {
			t.Fatalf("frame %d decisions diverge: %+v vs %+v", i, fa, fb)
		}
	}
	// A different seed produces a different pattern.
	c, _ := New(Config{Seed: 43, FrameDropRate: 0.3})
	same := 0
	for i := 0; i < 500; i++ {
		if a.Frame(i).Drop == c.Frame(i).Drop {
			same++
		}
	}
	if same == 500 {
		t.Error("seed does not change the drop pattern")
	}
}

// TestGateDrawsIndependent verifies that enabling one knob does not
// reshuffle another's pattern: the drop decisions with and without panics
// enabled must be identical.
func TestGateDrawsIndependent(t *testing.T) {
	plain, _ := New(Config{Seed: 7, FrameDropRate: 0.25})
	mixed, _ := New(Config{Seed: 7, FrameDropRate: 0.25, PanicRate: 0.5, BurstRate: 0.9})
	for i := 0; i < 1000; i++ {
		if plain.Frame(i).Drop != mixed.Frame(i).Drop {
			t.Fatalf("frame %d: drop decision depends on unrelated knobs", i)
		}
	}
}

func TestDropRateApproximatelyHolds(t *testing.T) {
	in, _ := New(Config{Seed: 9, FrameDropRate: 0.2})
	drops := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if in.Frame(i).Drop {
			drops++
		}
	}
	got := float64(drops) / n
	if got < 0.17 || got > 0.23 {
		t.Errorf("empirical drop rate %.3f, want ~0.2", got)
	}
}

func TestApplyCorruptsAndBursts(t *testing.T) {
	const numRx, samples = 4, 64
	in, _ := New(Config{Seed: 5, CorruptRate: 1, BurstRate: 1, BurstAmplitude: 1})
	data := make([]complex128, numRx*samples)
	ff := in.Frame(0)
	if !ff.Corrupt || !ff.Burst {
		t.Fatal("rate-1 faults not selected")
	}
	n := ff.Apply(data, numRx, samples)
	if n == 0 {
		t.Fatal("Apply corrupted no samples")
	}
	nonFinite, energetic := 0, 0
	for _, v := range data {
		if math.IsNaN(real(v)) || math.IsNaN(imag(v)) || math.IsInf(real(v), 0) || math.IsInf(imag(v), 0) {
			nonFinite++
		} else if cmplx.Abs(v) > 0.5 {
			energetic++
		}
	}
	if nonFinite == 0 {
		t.Error("no NaN/Inf samples written")
	}
	if nonFinite > n {
		t.Errorf("reported %d non-finite writes, found %d", n, nonFinite)
	}
	if energetic == 0 {
		t.Error("no burst-noise samples found")
	}

	// Same frame, same buffer: the corruption pattern is reproducible.
	again := make([]complex128, numRx*samples)
	in.Frame(0).Apply(again, numRx, samples)
	for i := range data {
		same := data[i] == again[i] ||
			(math.IsNaN(real(data[i])) && math.IsNaN(real(again[i]))) ||
			(math.IsNaN(imag(data[i])) && math.IsNaN(imag(again[i])))
		if !same {
			t.Fatalf("sample %d not reproducible: %v vs %v", i, data[i], again[i])
		}
	}
}

// TestApplyNilSkipsDraws: Apply with nil data consumes exactly the draws a
// real call does, so the frame's next buffer gets the faults it would get
// after a real first call, bit for bit.
func TestApplyNilSkipsDraws(t *testing.T) {
	const numRx, samples = 4, 64
	in, _ := New(Config{Seed: 9, CorruptRate: 1, BurstRate: 1, BurstAmplitude: 1})
	first := make([]complex128, numRx*samples)
	want := make([]complex128, numRx*samples)
	ff := in.Frame(3)
	ff.Apply(first, numRx, samples)
	ff.Apply(want, numRx, samples)
	skip := in.Frame(3)
	if n := skip.Apply(nil, numRx, samples); n != 0 {
		t.Fatalf("nil-data Apply reported %d writes", n)
	}
	got := make([]complex128, numRx*samples)
	skip.Apply(got, numRx, samples)
	for i := range want {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			t.Fatalf("sample %d: %v after a skipped first call, %v after a real one", i, got[i], want[i])
		}
	}
}

// TestNonFiniteMatchesScrubCount: NonFinite counts exactly the samples
// Apply leaves non-finite in a finite frame, repeated hits included, and
// consumes the same draws, so a later Apply on the frame's next buffer is
// unchanged.
func TestNonFiniteMatchesScrubCount(t *testing.T) {
	const numRx, samples = 4, 64
	in, _ := New(Config{Seed: 2, CorruptRate: 0.8, CorruptFraction: 0.5, BurstRate: 0.5, BurstAmplitude: 1})
	repeats := false
	for i := 0; i < 200; i++ {
		data := make([]complex128, numRx*samples)
		for k := range data {
			data[k] = complex(float64(k), -1)
		}
		ff := in.Frame(i)
		writes := ff.Apply(data, numRx, samples)
		nonFinite := 0
		for _, v := range data {
			if math.IsNaN(real(v)) || math.IsNaN(imag(v)) || math.IsInf(real(v), 0) || math.IsInf(imag(v), 0) {
				nonFinite++
			}
		}
		repeats = repeats || writes > nonFinite
		want := make([]complex128, numRx*samples)
		ff.Apply(want, numRx, samples)

		counted := in.Frame(i)
		if got := counted.NonFinite(numRx, samples); got != nonFinite {
			t.Fatalf("frame %d: NonFinite = %d, Apply left %d non-finite samples", i, got, nonFinite)
		}
		got := make([]complex128, numRx*samples)
		counted.Apply(got, numRx, samples)
		for k := range want {
			if math.Float64bits(real(got[k])) != math.Float64bits(real(want[k])) ||
				math.Float64bits(imag(got[k])) != math.Float64bits(imag(want[k])) {
				t.Fatalf("frame %d sample %d: %v after NonFinite, %v after Apply", i, k, got[k], want[k])
			}
		}
	}
	if !repeats {
		t.Error("no frame hit a sample twice; raise CorruptFraction")
	}
}

func TestDefaultsFilled(t *testing.T) {
	in, err := New(Config{CorruptRate: 0.1, DelayRate: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := in.cfg
	if cfg.CorruptFraction != 0.02 || cfg.BurstFraction != 0.1 ||
		cfg.BurstAmplitude != 1e-4 || cfg.Delay != time.Millisecond {
		t.Errorf("defaults not filled: %+v", cfg)
	}
}

// TestKindsMatchesFrameSchedule pins the Kinds replay to the per-frame
// decisions: the totals must agree with counting Frame(i) by hand, and a
// kind's count must be invariant to enabling other kinds (the fixed gate-draw
// order contract).
func TestKindsMatchesFrameSchedule(t *testing.T) {
	cfg := Config{Seed: 11, FrameDropRate: 0.2, CorruptRate: 0.1,
		BurstRate: 0.05, PanicRate: 0.02, DelayRate: 0.3}
	in, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	var want KindCounts
	for i := 0; i < n; i++ {
		ff := in.Frame(i)
		if ff.Drop {
			want.Drop++
		}
		if ff.Panic {
			want.Panic++
		}
		if ff.Corrupt {
			want.Corrupt++
		}
		if ff.Burst {
			want.Burst++
		}
		if ff.Delay > 0 {
			want.Delay++
		}
	}
	if got := in.Kinds(n); got != want {
		t.Errorf("Kinds(%d) = %+v, want %+v", n, got, want)
	}
	if want.Total() == 0 {
		t.Fatal("schedule injected nothing; rates or seed broken")
	}
	// Drop-only config at the same seed schedules the same drops.
	dropOnly, err := New(Config{Seed: 11, FrameDropRate: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if got := dropOnly.Kinds(n).Drop; got != want.Drop {
		t.Errorf("drop-only schedule drops %d frames, want %d (other knobs reshuffled the gate draws)", got, want.Drop)
	}
	var nilInj *Injector
	if got := nilInj.Kinds(n); got != (KindCounts{}) {
		t.Errorf("nil injector Kinds = %+v, want zero", got)
	}
}

func TestKindCountsLabels(t *testing.T) {
	k := KindCounts{Drop: 2, Burst: 1, Delay: 3}
	got := k.Labels()
	want := []string{"drop", "burst", "delay"}
	if len(got) != len(want) {
		t.Fatalf("Labels = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Labels = %v, want %v (fixed gate order)", got, want)
		}
	}
	if (KindCounts{}).Labels() != nil {
		t.Error("zero counts should yield no labels")
	}
	if k.Total() != 6 {
		t.Errorf("Total = %d, want 6", k.Total())
	}
}
