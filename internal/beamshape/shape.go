// Package beamshape implements the elevation beam shaping of Sec 4.3: a
// differential-evolution search over per-module phase weights that flattens
// a PSVAA stack's pencil beam into a wide flat-top, so the tag tolerates
// radar-tag height misalignment.
//
// A phase weight phi is imprinted by adding phi/(2*pi)*lambda_g of length to
// all three of a module's transmission lines, which makes the module
// physically taller. The vertical pitch between adjacent modules therefore
// grows with their phases:
//
//	pitch(j, j+1) = 0.725*lambda + (phi_j + phi_{j+1})/2 * lambda_g/(2*pi)
//
// This rule reproduces the fabricated layout of Fig 8a exactly: phases of
// 37.6 and 152.9 degrees yield the paper's 0.753*lambda and 0.867*lambda
// pitches. Because repositioning changes the modules' geometric phases, the
// weights cannot be solved in closed form — hence the DE-GA meta-optimizer
// (the paper's [55], implemented in package optim).
package beamshape

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"ros/internal/em"
	"ros/internal/geom"
	"ros/internal/optim"
	"ros/internal/stack"
	"ros/internal/txline"
)

// DefaultTargetWidth is the paper's target flat-top elevation beamwidth
// ("a desired wide elevation beamwidth (e.g., 10 deg)").
const DefaultTargetWidth = 10.0 * math.Pi / 180

// PitchesFromPhases derives the n-1 vertical pitches of an n-module stack
// from its phase weights using the TL-growth rule above.
func PitchesFromPhases(phases []float64) []float64 {
	lg := txline.Default().GuidedWavelength(em.CenterFrequency)
	base := stack.DefaultPitch * em.Lambda79()
	out := make([]float64, len(phases)-1)
	for j := range out {
		out[j] = base + (phases[j]+phases[j+1])/2*lg/(2*math.Pi)
	}
	return out
}

// Build assembles a shaped stack from phase weights (positions derived via
// PitchesFromPhases).
func Build(phases []float64) (*stack.Stack, error) {
	if len(phases) < 2 {
		return nil, fmt.Errorf("beamshape: need at least 2 modules, got %d", len(phases))
	}
	for i, p := range phases {
		if p < 0 || p >= 2*math.Pi {
			return nil, fmt.Errorf("beamshape: phase[%d] = %g outside [0, 2*pi)", i, p)
		}
	}
	return stack.NewShaped(PitchesFromPhases(phases), phases)
}

// PaperPhases8 returns the phase weights of the fabricated 8-module example
// of Fig 8a: +/-152.9 deg on the outermost modules, +/-37.6 deg on the next,
// zero in the middle.
func PaperPhases8() []float64 {
	p0 := geom.Rad(152.9)
	p1 := geom.Rad(37.6)
	return []float64{p0, p1, 0, 0, 0, 0, p1, p0}
}

// Result reports a beam-shaping synthesis.
type Result struct {
	// Stack is the shaped stack.
	Stack *stack.Stack
	// Phases are the optimized weights (radians).
	Phases []float64
	// Score is the final objective value (lower is better).
	Score float64
	// BeamwidthRad is the measured -3 dB elevation beamwidth of the result.
	BeamwidthRad float64
}

// Shape searches, with the DE-GA, for symmetric phase weights that widen an
// n-module stack's elevation beam to targetWidth radians. The rng makes the
// search reproducible.
func Shape(n int, targetWidth float64, rng *rand.Rand) (Result, error) {
	if n < 4 {
		return Result{}, fmt.Errorf("beamshape: need at least 4 modules, got %d", n)
	}
	if targetWidth <= 0 {
		return Result{}, fmt.Errorf("beamshape: non-positive target width %g", targetWidth)
	}
	if rng == nil {
		return Result{}, fmt.Errorf("beamshape: nil rng")
	}
	half := (n + 1) / 2
	bounds := make([]optim.Bounds, half)
	for i := range bounds {
		bounds[i] = optim.Bounds{Lo: 0, Hi: 2 * math.Pi * 0.999}
	}
	obj := func(x []float64) float64 {
		return objective(mirror(x, n), targetWidth)
	}
	res, err := optim.Minimize(obj, bounds, optim.Config{
		PopSize:     12 * half,
		Generations: 250,
		F:           0.6,
		CR:          0.9,
	}, rng)
	if err != nil {
		return Result{}, err
	}
	phases := mirror(res.X, n)
	st, err := Build(phases)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Stack:        st,
		Phases:       phases,
		Score:        res.Score,
		BeamwidthRad: st.MeasuredBeamwidth(em.CenterFrequency),
	}, nil
}

//go:generate go run gen_phases.go

var (
	shapedMu    sync.Mutex
	shapedOnce  = map[int]*sync.Once{}
	shapedCache = map[int]*stack.Stack{}
)

// Shaped returns the beam-shaped n-module stack (n >= 4) that Shape finds
// with the fixed seed 1000+n, shared by every caller asking for that size.
//
// For the paper's sizes, n in {8, 16, 32}, the search's phase weights are
// checked in as generated data (shapedHalves in phases_gen.go, written by
// gen_phases.go through go generate), so Shaped only builds the stack. Any
// other size runs the DE search once per process, memoized so repeated
// and concurrent callers pay it once.
func Shaped(n int) *stack.Stack {
	if n < 4 {
		panic(fmt.Sprintf("beamshape: Shaped(%d): need at least 4 modules", n))
	}
	shapedMu.Lock()
	once, ok := shapedOnce[n]
	if !ok {
		once = new(sync.Once)
		shapedOnce[n] = once
	}
	shapedMu.Unlock()

	once.Do(func() {
		var st *stack.Stack
		var err error
		if half, ok := shapedHalves[n]; ok {
			st, err = Build(mirror(half, n))
		} else {
			var res Result
			res, err = Shape(n, DefaultTargetWidth, rand.New(rand.NewSource(int64(1000+n))))
			st = res.Stack
		}
		if err != nil {
			panic(fmt.Sprintf("beamshape: Shaped(%d): %v", n, err))
		}
		shapedMu.Lock()
		shapedCache[n] = st
		shapedMu.Unlock()
	})

	shapedMu.Lock()
	defer shapedMu.Unlock()
	return shapedCache[n]
}

// mirror expands half-space phases to a symmetric full vector (outermost
// module first).
func mirror(half []float64, n int) []float64 {
	out := make([]float64, n)
	for i := range half {
		out[i] = half[i]
		out[n-1-i] = half[i]
	}
	return out
}

// objective scores a candidate phase vector: relative ripple inside the flat
// region, rewarded flat-region level, and penalized stop-band energy.
func objective(phases []float64, targetWidth float64) float64 {
	st, err := Build(phases)
	if err != nil {
		return math.Inf(1)
	}
	n := float64(st.N())
	flat := targetWidth / 2 * 0.85
	stop := targetWidth / 2 * 1.8

	minFlat, maxFlat := math.Inf(1), 0.0
	stopSum, stopCount := 0.0, 0
	const step = 0.5 * math.Pi / 180
	for el := -3 * targetWidth; el <= 3*targetWidth; el += step {
		g := st.ElevationGain(el, em.CenterFrequency) / (n * n)
		a := math.Abs(el)
		switch {
		case a <= flat:
			if g < minFlat {
				minFlat = g
			}
			if g > maxFlat {
				maxFlat = g
			}
		case a >= stop:
			stopSum += g
			stopCount++
		}
	}
	if maxFlat == 0 {
		return math.Inf(1)
	}
	ripple := (maxFlat - minFlat) / maxFlat
	meanStop := stopSum / float64(stopCount)
	return ripple - 2*minFlat + 4*meanStop
}
