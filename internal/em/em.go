// Package em provides the electromagnetic groundwork for the RoS
// reproduction: physical constants, the monostatic radar range equation
// (Eq 1 of the paper), the receiver noise floor and link budget of Sec 5.3,
// polarization (Jones vector) algebra for the PSVAA's polarization
// switching, and the atmospheric attenuation models used in the fog
// experiments (Fig 16c).
package em

import (
	"fmt"
	"math"
)

// C is the speed of light in vacuum, m/s.
const C = 299_792_458.0

// Automotive radar band constants used throughout the paper.
const (
	// BandLow and BandHigh delimit the 76-81 GHz automotive radar band.
	BandLow  = 76e9
	BandHigh = 81e9
	// CenterFrequency is the paper's design frequency (79 GHz).
	CenterFrequency = 79e9
)

// Wavelength returns the free-space wavelength in meters at frequency f Hz.
func Wavelength(f float64) float64 {
	if f <= 0 {
		panic(fmt.Sprintf("em: Wavelength of non-positive frequency %g", f))
	}
	return C / f
}

// Lambda79 is the free-space wavelength at the 79 GHz design frequency.
func Lambda79() float64 { return Wavelength(CenterFrequency) }

// DBm converts watts to dBm.
func DBm(watts float64) float64 {
	if watts <= 0 {
		return math.Inf(-1)
	}
	return 10*math.Log10(watts) + 30
}

// FromDBm converts dBm to watts.
func FromDBm(dbm float64) float64 {
	return math.Pow(10, (dbm-30)/10)
}

// DB converts a linear power ratio to dB.
func DB(x float64) float64 {
	if x <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(x)
}

// FromDB converts dB to a linear power ratio.
func FromDB(db float64) float64 { return math.Pow(10, db/10) }

// DBsm converts an RCS in square meters to dBsm.
func DBsm(sigma float64) float64 { return DB(sigma) }

// FromDBsm converts dBsm to square meters.
func FromDBsm(dbsm float64) float64 { return FromDB(dbsm) }

// ReceivedPowerDBm evaluates the paper's Eq 1, the monostatic round-trip
// radar equation
//
//	Pr = Pt * Gt * Gr * lambda^2 * sigma / ((4*pi)^3 * d^4)
//
// in the dB domain: EIRP (Pt*Gt) in dBm, Rx gain in dB, lambda and d in
// meters, RCS in dBsm. It returns dBm.
func ReceivedPowerDBm(eirpDBm, rxGainDB, lambda, d, rcsDBsm float64) float64 {
	if d <= 0 {
		panic(fmt.Sprintf("em: ReceivedPowerDBm at non-positive distance %g", d))
	}
	fourPiCubedDB := 30 * math.Log10(4*math.Pi)
	return eirpDBm + rxGainDB + 20*math.Log10(lambda) + rcsDBsm - fourPiCubedDB - 40*math.Log10(d)
}
