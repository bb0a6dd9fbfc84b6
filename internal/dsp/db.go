package dsp

import "math"

// DB converts a linear power ratio to decibels. Non-positive inputs map to
// -Inf.
func DB(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(p)
}

// FromDB converts decibels to a linear power ratio.
func FromDB(db float64) float64 {
	return math.Pow(10, db/10)
}
