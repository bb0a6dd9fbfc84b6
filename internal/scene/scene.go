package scene

import (
	"math"
	"math/cmplx"
	"math/rand"

	"ros/internal/em"
	"ros/internal/geom"
	"ros/internal/radar"
)

// Mode selects the radar's transmit polarization chain (Sec 7.1: "one
// original Tx antenna for object detection and the polarization switching Tx
// antenna for tag decoding").
type Mode int

// Radar interrogation modes.
const (
	// ModeDetect uses matched Tx/Rx polarization: ordinary objects appear
	// at full strength, the tag only through its co-polarized (structural)
	// response.
	ModeDetect Mode = iota
	// ModeDecode uses the polarization-switching Tx: the tag's PSVAA
	// response dominates while clutter is suppressed by its cross-pol
	// rejection.
	ModeDecode
)

// Scene is a stretch of roadside: tags, clutter, and weather.
type Scene struct {
	// Tags are the RoS tags (usually one; Fig 16a places two).
	Tags []*Tag
	// Clutter are ordinary roadside objects.
	Clutter []*Object
	// Fog is the weather condition (Fig 16c).
	Fog em.FogLevel
	// RainMMPerHour adds rain attenuation (Sec 7.3 quotes 3.2 dB/100 m at
	// 100 mm/h from the paper's [64]); 0 means dry.
	RainMMPerHour float64
	// Blockers are opaque slabs (vehicles) that shadow lines of sight
	// (Sec 7.3's blockage discussion).
	Blockers []Blocker
	// Ground, when non-nil, adds the two-ray road-surface bounce to every
	// path (extra realism beyond the paper's anechoic-style model; the
	// frequency-domain code shrugs it off because detrending removes the
	// slowly varying interference envelope).
	Ground *GroundMultipath
	// Responses, when non-nil, memoizes tag field terms through the given
	// resource handle (an Engine's); nil evaluates every term directly.
	// Results are bit-identical either way.
	Responses *ResponseCache
	// DisablePolSwitching ablates Sec 4.2's PSVAA design: decode-mode
	// clutter keeps its full co-polarized strength (no cross-pol
	// rejection) and the tag re-radiates from both halves of each pair
	// (+6 dB), i.e. the tag behaves as a plain VAA read with a co-pol
	// radar. Used to quantify the paper's claim that "the benefit from
	// polarization switching is more than 14 dB".
	DisablePolSwitching bool
}

// refElevationGain is the broadside two-way elevation gain of the
// calibration reference — the beam-shaped 32-module stack
// (beamshape.Shaped(32).ElevationGain(0, 79 GHz)) — against which
// ClassStats' tag RCS is quoted. The detect package's tests pin the
// resulting ~13 dB RSS-loss feature, catching drift if the beam-shaping
// synthesis changes.
const refElevationGain = 42.5

// radarPatternExponent shapes the radar antenna's one-way amplitude element
// pattern cos^q(az); q = 1.2 puts the two-way -3 dB width at ~60 degrees,
// the typical radar antenna FoV quoted in Sec 7.3.
const radarPatternExponent = 1.2

// radarElementAmp is the two-way radar antenna pattern factor (amplitude).
func radarElementAmp(az float64) float64 {
	c := math.Cos(az)
	if c <= 0 {
		return 0
	}
	return math.Pow(c, 2*radarPatternExponent)
}

// Scatterers converts the scene into the point-scatterer list seen by a
// radar at radarPos moving with radarVel, for one frame in the given mode.
// The front end and frequency size the link budget; the rng draws
// per-measurement polarization-rejection spread (nil for deterministic
// output).
func (s *Scene) Scatterers(radarPos, radarVel geom.Vec3, mode Mode, fe em.RadarFrontEnd, f float64, rng *rand.Rand) []radar.Scatterer {
	lambda := em.Wavelength(f)
	fogAtten := s.Fog.AttenuationDBPerMeter() + em.RainAttenuationDBPerMeter(s.RainMMPerHour)
	capHint := 3 * len(s.Tags) // detect mode emits up to 3 points per tag
	for _, o := range s.Clutter {
		capHint += len(o.offsets)
	}
	out := make([]radar.Scatterer, 0, capHint)

	// amplitudeFor evaluates Eq 1 for a given RCS (m^2) at distance d,
	// including the radar element pattern and fog.
	amplitudeFor := func(rcs float64, d, az float64) float64 {
		if rcs <= 0 || d <= 0 {
			return 0
		}
		pr := em.ReceivedPowerDBm(fe.EIRPdBm, fe.RxGainDB(), lambda, d, em.DBsm(rcs))
		amp := math.Sqrt(em.FromDBm(pr))
		amp *= radarElementAmp(az)
		amp *= math.Sqrt(em.RoundTripLoss(fogAtten, d))
		return amp
	}

	addPoint := func(pos geom.Vec3, rcs float64, extraPhase float64) {
		if s.blocked(radarPos, pos) {
			return
		}
		rel := pos.Sub(radarPos)
		d := rel.Norm()
		az := math.Atan2(rel.X, -rel.Y) // radar at y>0 looks toward -y (side-looking)
		amp := amplitudeFor(rcs, d, az)
		if amp == 0 {
			return
		}
		amp *= s.Ground.TwoWayFactor(radarPos, pos, lambda)
		vr := 0.0
		if d > 0 {
			vr = -rel.Unit().Dot(radarVel) // positive when receding
		}
		out = append(out, radar.Scatterer{
			Range:          d,
			Azimuth:        az,
			Elevation:      math.Atan2(rel.Z, math.Hypot(rel.X, rel.Y)),
			Amplitude:      amp,
			Phase:          extraPhase,
			RadialVelocity: vr,
		})
	}

	for _, o := range s.Clutter {
		rcs := o.pointRCS()
		if mode == ModeDecode && !s.DisablePolSwitching {
			rcs *= em.FromDB(-o.rejection(rng))
		}
		for _, off := range o.offsets {
			addPoint(o.Position.Add(off), rcs, 0)
		}
	}

	for _, t := range s.Tags {
		switch mode {
		case ModeDecode:
			if s.blocked(radarPos, t.Position) {
				continue
			}
			resp := t.responseCached(s.Responses, radarPos, f)
			if s.DisablePolSwitching {
				// Both pair halves re-radiate: +6 dB RCS (Sec 4.2).
				resp *= 2
			}
			a := cmplx.Abs(resp)
			if a == 0 {
				continue
			}
			rel := t.Position.Sub(radarPos)
			d := rel.Norm()
			az := math.Atan2(rel.X, -rel.Y)
			amp := amplitudeFor(a*a, d, az)
			if amp == 0 {
				continue
			}
			amp *= s.Ground.TwoWayFactor(radarPos, t.Position, lambda)
			vr := -rel.Unit().Dot(radarVel)
			out = append(out, radar.Scatterer{
				Range:          d,
				Azimuth:        az,
				Elevation:      math.Atan2(rel.Z, math.Hypot(rel.X, rel.Y)),
				Amplitude:      amp,
				Phase:          cmplx.Phase(resp),
				RadialVelocity: vr,
			})
		case ModeDetect:
			// Co-polarized structural response: a compact bright object.
			// The structural return radiates from the same aperture as the
			// antenna mode, so it carries the same per-stack aperture
			// field sum — elevation directivity, beam-shaping spread, and
			// near-field defocus included — and scales with the number of
			// mounted stacks. Stats calibrates the beam-shaped 32-module,
			// 5-stack reference (whose broadside far-field gain is
			// refElevationGain). This pins the RSS-loss feature near
			// Fig 13a's ~13 dB for every stack size, shaping choice, and
			// bit pattern.
			aperture := t.stackPowerCached(s.Responses, radarPos, f) / refElevationGain
			mounted := float64(len(t.Layout.Positions())) / 5
			rcs := em.FromDBsm(t.Stats.RCSdBsm) * aperture * mounted / 3
			for i := -1; i <= 1; i++ {
				off := geom.Vec3{X: float64(i) * t.Stats.Extent, Z: float64(i) * t.Stats.Extent}
				addPoint(t.Position.Add(off), rcs, 0)
			}
		}
	}
	return out
}
