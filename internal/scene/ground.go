package scene

import (
	"math"

	"ros/internal/geom"
)

// GroundMultipath is the classic two-ray road-surface bounce: besides the
// direct path, energy reaches the target via a reflection off the asphalt,
// and the two combine with a path-difference phase. Radar and tag heights
// here are measured above the road surface (the scene's z = 0 plane is the
// radar mounting height).
type GroundMultipath struct {
	// RadarHeight is the radar's mounting height above the road in meters
	// (z = 0 in scene coordinates corresponds to this height).
	RadarHeight float64
	// ReflectionCoeff is the road surface's field reflection coefficient
	// (asphalt at grazing incidence is around -0.7).
	ReflectionCoeff float64
}

// DefaultGround returns a bumper-height radar over asphalt.
func DefaultGround() *GroundMultipath {
	return &GroundMultipath{RadarHeight: 0.5, ReflectionCoeff: -0.7}
}

// TwoWayFactor returns the amplitude multiplier the bounce applies to a
// monostatic round trip between the radar and a point target. A nil
// receiver returns 1 (no ground model).
func (g *GroundMultipath) TwoWayFactor(radarPos, target geom.Vec3, lambda float64) float64 {
	if g == nil {
		return 1
	}
	hr := g.RadarHeight + radarPos.Z
	ht := g.RadarHeight + target.Z
	if hr <= 0 || ht <= 0 {
		return 1 // below grade: no specular bounce geometry
	}
	dx := target.X - radarPos.X
	dy := target.Y - radarPos.Y
	horiz := math.Hypot(dx, dy)
	direct := math.Sqrt(horiz*horiz + (ht-hr)*(ht-hr))
	bounced := math.Sqrt(horiz*horiz + (ht+hr)*(ht+hr))
	delta := bounced - direct
	ph := 2 * math.Pi * delta / lambda
	sin, cos := math.Sincos(ph)
	// One-way field: 1 + Gamma*e^{-j*ph}; the round trip squares it in
	// power, i.e. the amplitude factor is |1 + Gamma*e^{-j*ph}|^2... the
	// same composite channel is traversed twice, so the two-way amplitude
	// is the one-way power factor.
	re := 1 + g.ReflectionCoeff*cos
	im := -g.ReflectionCoeff * sin
	return re*re + im*im
}
