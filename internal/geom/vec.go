// Package geom provides the small geometric toolkit used by the RoS
// reproduction: 2-D/3-D vectors, angle conventions, and vehicle
// trajectories.
//
// Coordinate convention (matching the paper's road scenario, Fig 1/Fig 11):
// the x axis runs along the road (the direction of travel), the y axis
// points across the road from the tag toward the lanes, and the z axis is
// height above the radar's mounting plane. The RoS tag's horizontal stack
// axis is parallel to x, so the spatial-coding angle theta in Sec 5.1 is the
// angle between the radar's line of sight and +x, and u = cos(theta).
package geom

import "math"

// Vec2 is a 2-D vector (x along the road, y across it).
type Vec2 struct {
	X, Y float64
}

// Add returns v + w.
func (v Vec2) Add(w Vec2) Vec2 { return Vec2{v.X + w.X, v.Y + w.Y} }

// Sub returns v - w.
func (v Vec2) Sub(w Vec2) Vec2 { return Vec2{v.X - w.X, v.Y - w.Y} }

// Scale returns v scaled by s.
func (v Vec2) Scale(s float64) Vec2 { return Vec2{v.X * s, v.Y * s} }

// Norm returns the Euclidean length of v.
func (v Vec2) Norm() float64 { return math.Hypot(v.X, v.Y) }

// Dist returns the Euclidean distance between v and w.
func (v Vec2) Dist(w Vec2) float64 { return v.Sub(w).Norm() }

// Vec3 is a 3-D vector; z is height.
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the dot product of v and w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// XY projects v onto the ground plane.
func (v Vec3) XY() Vec2 { return Vec2{v.X, v.Y} }

// Unit returns v normalized to unit length. The zero vector is returned
// unchanged.
func (v Vec3) Unit() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}
