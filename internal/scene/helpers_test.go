package scene

import (
	"math/cmplx"

	"ros/internal/geom"
)

// Views of the tag model the package's tests check against the paper's
// equations; no read evaluates them.

// RCS returns the decode-mode radar cross section in m^2 seen from
// radarPos.
func (t *Tag) RCS(radarPos geom.Vec3, f float64) float64 {
	a := cmplx.Abs(t.Response(radarPos, f))
	return a * a
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
