package scene

import (
	"fmt"
	"math"
	"math/cmplx"

	"ros/internal/coding"
	"ros/internal/em"
	"ros/internal/geom"
	"ros/internal/stack"
)

// Tag is a physical RoS tag placed in the scene: a spatial-coding layout of
// identical (beam-shaped) PSVAA stacks. Its decode-mode radar response is
// computed with exact spherical wavefronts per module, so far-field spatial
// coding (Eq 6), elevation beam shaping (Sec 4.3), and near-field distortion
// (Eq 8) all emerge from one model.
type Tag struct {
	// Layout is the spatial code.
	Layout *coding.Layout
	// Stack is the vertical PSVAA stack used for every present stack
	// position.
	Stack *stack.Stack
	// Position is the reference stack's center in world coordinates. The
	// tag's horizontal axis is parallel to the road (x).
	Position geom.Vec3
	// Stats calibrates the tag's co-polarized (detection mode) appearance;
	// defaults to Stats(ClassTag).
	Stats ClassStats

	// fp fingerprints the response-relevant geometry (layout, stack,
	// position), keying the field-term memo (ResponseCache). NewTag computes it
	// eagerly; tags built as literals carry fp 0 and always evaluate
	// directly. A non-zero fp asserts Layout, Stack, and Position stay
	// unmodified for the tag's lifetime — mutate them and the memo serves
	// stale terms.
	fp uint64
}

// NewTag assembles a tag from a layout and a stack at the given position.
func NewTag(layout *coding.Layout, st *stack.Stack, pos geom.Vec3) (*Tag, error) {
	if layout == nil || st == nil {
		return nil, fmt.Errorf("scene: tag requires a layout and a stack")
	}
	if err := st.Validate(); err != nil {
		return nil, err
	}
	return &Tag{
		Layout:   layout,
		Stack:    st,
		Position: pos,
		Stats:    Stats(ClassTag),
		fp:       tagFingerprint(layout, st, pos),
	}, nil
}

// FNV-1a parameters for the tag fingerprint.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

func fnvFloat(h uint64, v float64) uint64 { return fnvU64(h, math.Float64bits(v)) }

func fnvFloats(h uint64, vs []float64) uint64 {
	h = fnvU64(h, uint64(len(vs)))
	for _, v := range vs {
		h = fnvFloat(h, v)
	}
	return h
}

// tagFingerprint hashes everything Response and stackPower read: the stack
// placements, the module heights and phase weights, the module model itself
// (via its printed field values — slow, but run once per tag), and the world
// position. Zero is reserved for "no memo", so a hash landing there is
// nudged off it.
func tagFingerprint(layout *coding.Layout, st *stack.Stack, pos geom.Vec3) uint64 {
	h := uint64(fnvOffset)
	h = fnvFloats(h, layout.Positions())
	h = fnvFloats(h, st.Heights)
	h = fnvFloats(h, st.Phases)
	for _, b := range []byte(fmt.Sprintf("%+v", *st.Module)) {
		h ^= uint64(b)
		h *= fnvPrime
	}
	h = fnvFloat(h, pos.X)
	h = fnvFloat(h, pos.Y)
	h = fnvFloat(h, pos.Z)
	if h == 0 {
		h = 1
	}
	return h
}

// responseCached is Response memoizing through a cache; nil skips
// memoization entirely.
func (t *Tag) responseCached(rc *ResponseCache, radarPos geom.Vec3, f float64) complex128 {
	if t.fp == 0 || rc == nil {
		return t.Response(radarPos, f)
	}
	key := responseKey{fp: t.fp, px: radarPos.X, py: radarPos.Y, pz: radarPos.Z, f: f, kind: kindResponse}
	if v, ok := rc.load(key); ok {
		return v.(complex128)
	}
	r := t.Response(radarPos, f)
	rc.store(key, r)
	return r
}

// Response returns the tag's decode-mode complex reflection coefficient for
// a radar at the given world position: amplitude^2 is the tag RCS in m^2 and
// the phase is relative to the tag center (the center's own round-trip phase
// is applied by the radar model through Scatterer.Range). It evaluates the
// full per-module coherent field sum; the read path memoizes it through the
// scene's ResponseCache.
func (t *Tag) Response(radarPos geom.Vec3, f float64) complex128 {
	lambda := em.Wavelength(f)
	k := 4 * math.Pi / lambda
	rel := radarPos.Sub(t.Position)
	rCenter := rel.Norm()
	if rCenter == 0 {
		return 0
	}
	// Azimuth from the stack's broadside (+y): the PSVAA is retroreflective
	// here, so only the smooth envelope remains.
	az := math.Atan2(rel.X, rel.Y)
	moduleAmp := math.Sqrt(t.Stack.Module.MonostaticRCS(az, f, em.PolV, em.PolH))
	if moduleAmp == 0 {
		return 0
	}

	// Module loop in components: every module's offset from the radar is
	// rel minus its (x, z) placement, so the y term — and its square — are
	// loop invariants.
	elem := t.Stack.Module.Element
	heights := t.Stack.Heights
	phases := t.Stack.Phases
	ry2 := rel.Y * rel.Y
	var sumRe, sumIm float64
	for _, d := range t.Layout.Positions() {
		dx := rel.X - d
		horiz2 := dx*dx + ry2
		horiz := math.Sqrt(horiz2)
		for j, zj := range heights {
			dz := rel.Z - zj
			r := math.Sqrt(horiz2 + dz*dz)
			if r == 0 {
				continue
			}
			// cos(elevation) is horizontal over slant range directly —
			// no Atan2/Cos round trip per module, and the horizontal
			// distance is shared by the whole stack.
			elemEl := elem.PatternCos(horiz / r)
			ph := -k*(r-rCenter) + phases[j]
			sp, cp := math.Sincos(ph)
			amp := moduleAmp * elemEl
			sumRe += amp * cp
			sumIm += amp * sp
		}
	}
	return complex(sumRe, sumIm)
}

// RCS returns the decode-mode radar cross section in m^2 seen from
// radarPos.
func (t *Tag) RCS(radarPos geom.Vec3, f float64) float64 {
	a := cmplx.Abs(t.Response(radarPos, f))
	return a * a
}

// ElevationEnvelope returns the exact (near-field) elevation power factor of
// one stack seen from radarPos, normalized to the same position at the tag's
// height: the ratio by which height misalignment scales the tag's return.
// Both the antenna mode and the structural mode radiate from the same
// aperture, so this factor applies to detection-mode returns too.
func (t *Tag) ElevationEnvelope(radarPos geom.Vec3, f float64) float64 {
	flat := radarPos
	flat.Z = t.Position.Z
	p0 := t.stackPower(flat, f)
	if p0 <= 0 {
		return 1
	}
	return t.stackPower(radarPos, f) / p0
}

// stackPowerCached is stackPower memoizing through a cache; nil skips
// memoization entirely.
func (t *Tag) stackPowerCached(rc *ResponseCache, radarPos geom.Vec3, f float64) float64 {
	if t.fp == 0 || rc == nil {
		return t.stackPower(radarPos, f)
	}
	key := responseKey{fp: t.fp, px: radarPos.X, py: radarPos.Y, pz: radarPos.Z, f: f, kind: kindStackPower}
	if v, ok := rc.load(key); ok {
		return v.(float64)
	}
	p := t.stackPower(radarPos, f)
	rc.store(key, p)
	return p
}

// stackPower evaluates the per-module coherent sum for the reference stack
// only (elevation structure without the spatial code).
func (t *Tag) stackPower(radarPos geom.Vec3, f float64) float64 {
	lambda := em.Wavelength(f)
	k := 4 * math.Pi / lambda
	rel := radarPos.Sub(t.Position)
	rCenter := rel.Norm()
	if rCenter == 0 {
		return 0
	}
	// The reference stack is vertical: the horizontal offset — and the
	// element pattern's numerator — is shared by every module.
	elem := t.Stack.Module.Element
	phases := t.Stack.Phases
	horiz2 := rel.X*rel.X + rel.Y*rel.Y
	horiz := math.Sqrt(horiz2)
	var re, im float64
	for j, zj := range t.Stack.Heights {
		dz := rel.Z - zj
		r := math.Sqrt(horiz2 + dz*dz)
		if r == 0 {
			continue
		}
		amp := elem.PatternCos(horiz / r)
		ph := -k*(r-rCenter) + phases[j]
		sp, cp := math.Sincos(ph)
		re += amp * cp
		im += amp * sp
	}
	return re*re + im*im
}

// U returns the spatial-coding observation coordinate u = cos(theta) for a
// radar at the given position, theta being the angle between the radar line
// of sight and the tag's +x axis (Sec 5.1).
func (t *Tag) U(radarPos geom.Vec3) float64 {
	rel := radarPos.Sub(t.Position)
	n := rel.Norm()
	if n == 0 {
		return 0
	}
	return rel.X / n
}
