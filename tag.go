package ros

import (
	"fmt"

	"ros/internal/beamshape"
	"ros/internal/coding"
	"ros/internal/em"
	"ros/internal/stack"
)

// Tag is a designed RoS road sign: a spatial code (which stacks are present
// and where) plus the vertical PSVAA stack used at every position.
type Tag struct {
	layout  *coding.Layout
	stack   *stack.Stack
	bits    string
	shaped  bool
	modules int
}

// TagOption customizes NewTag.
type TagOption func(*tagConfig) error

type tagConfig struct {
	modules      int
	beamShaped   bool
	deltaLambdas float64
}

// WithStackModules sets the number of PSVAAs stacked per position (8, 16 or
// 32 in the paper's evaluation; default 32). More modules raise the RCS —
// and the reading range — at the cost of a longer far-field distance
// (Fig 15). Beam shaping needs at least 4 modules: a smaller stack is
// built uniform and its tag reports BeamShaped false.
func WithStackModules(n int) TagOption {
	return func(c *tagConfig) error {
		if n < 1 {
			return fmt.Errorf("ros: stack needs at least 1 module, got %d", n)
		}
		c.modules = n
		return nil
	}
}

// WithoutBeamShaping disables the elevation beam shaping of Sec 4.3,
// yielding the pencil-beam baseline of Fig 14 (only useful for ablations).
func WithoutBeamShaping() TagOption {
	return func(c *tagConfig) error {
		c.beamShaped = false
		return nil
	}
}

// WithUnitSpacing sets the coding unit spacing delta_c in wavelengths
// (default 1.5, the paper's choice).
func WithUnitSpacing(lambdas float64) TagOption {
	return func(c *tagConfig) error {
		if lambdas <= 0 {
			return fmt.Errorf("ros: unit spacing must be positive, got %g", lambdas)
		}
		c.deltaLambdas = lambdas
		return nil
	}
}

// NewTag designs a tag for the given bit string ("1011"-style, most
// significant bit first).
func NewTag(bits string, opts ...TagOption) (*Tag, error) {
	cfg := tagConfig{modules: 32, beamShaped: true, deltaLambdas: 1.5}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	parsed, err := coding.ParseBits(bits)
	if err != nil {
		return nil, err
	}
	layout, err := coding.NewLayout(parsed, cfg.deltaLambdas*em.Lambda79())
	if err != nil {
		return nil, err
	}
	shaped := cfg.beamShaped && cfg.modules >= 4
	var st *stack.Stack
	if shaped {
		st = beamshape.Shaped(cfg.modules)
	} else {
		st = stack.NewUniform(cfg.modules)
	}
	return &Tag{
		layout:  layout,
		stack:   st,
		bits:    bits,
		shaped:  shaped,
		modules: cfg.modules,
	}, nil
}

// Bits returns the encoded bit string.
func (t *Tag) Bits() string { return t.bits }

// Modules returns the PSVAAs per stack.
func (t *Tag) Modules() int { return t.modules }

// BeamShaped reports whether elevation beam shaping is applied.
func (t *Tag) BeamShaped() bool { return t.shaped }

// StackPlacement describes one stack slot on the tag.
type StackPlacement struct {
	// Slot is 0 for the reference stack, 1..N for coding slots.
	Slot int
	// Position is the along-tag offset from the reference stack in
	// meters.
	Position float64
	// Present tells whether a physical stack is mounted (bit "1").
	Present bool
}

// Layout returns the physical placement of every stack slot.
func (t *Tag) Layout() []StackPlacement {
	out := []StackPlacement{{Slot: 0, Position: 0, Present: true}}
	for k := 1; k <= len(t.layout.Bits); k++ {
		out = append(out, StackPlacement{
			Slot:     k,
			Position: t.layout.SlotPosition(k),
			Present:  t.layout.Bits[k-1],
		})
	}
	return out
}

// Width returns the physical tag width in meters (Sec 5.3).
func (t *Tag) Width() float64 { return t.layout.Width() }

// Height returns the stack height in meters.
func (t *Tag) Height() float64 { return t.stack.Height() }

// FarFieldDistance returns Eq 8's bound in meters: decoding is most
// effective beyond it.
func (t *Tag) FarFieldDistance() float64 {
	return t.layout.FarFieldDistance(em.CenterFrequency)
}

// MaxVehicleSpeed returns the Nyquist speed bound of Eq 9 in m/s for a radar
// frame rate (Hz) and closest passing distance (m).
func (t *Tag) MaxVehicleSpeed(frameRateHz, standoffM float64) float64 {
	return t.layout.MaxSpeed(frameRateHz, standoffM, em.CenterFrequency)
}

// PredictedSpectrum returns the ideal far-field RCS frequency spectrum of
// the tag sampled across u in [-span, span]: the positions (in meters of
// stack spacing) and magnitudes of the coding-band spectrum, for comparison
// against measured reads (Fig 10c).
func (t *Tag) PredictedSpectrum(span float64, points int) (spacing, magnitude []float64, err error) {
	if span <= 0 || span > 1 {
		return nil, nil, fmt.Errorf("ros: spectrum span must be in (0, 1], got %g", span)
	}
	if points < 64 {
		return nil, nil, fmt.Errorf("ros: need at least 64 points, got %d", points)
	}
	lambda := em.Lambda79()
	pos := t.layout.Positions()
	us := make([]float64, points)
	rss := make([]float64, points)
	for i := range us {
		u := -span + 2*span*float64(i)/float64(points-1)
		us[i] = u
		rss[i] = coding.MultiStackGain(pos, u, lambda)
	}
	spec, err := coding.ComputeSpectrum(us, rss, coding.SpectrumOptions{Lambda: lambda}, nil)
	if err != nil {
		return nil, nil, err
	}
	return spec.Spacing, spec.Mag, nil
}
