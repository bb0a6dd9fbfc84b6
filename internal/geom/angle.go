package geom

import "math"

// Deg converts radians to degrees.
func Deg(rad float64) float64 { return rad * 180 / math.Pi }

// Rad converts degrees to radians.
func Rad(deg float64) float64 { return deg * math.Pi / 180 }

// MPH converts miles per hour to meters per second.
func MPH(mph float64) float64 { return mph * 0.44704 }
