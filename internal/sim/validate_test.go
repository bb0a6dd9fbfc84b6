package sim

import (
	"context"
	"errors"
	"math"
	"testing"

	"ros/internal/fault"
	"ros/internal/radar"
	"ros/internal/roserr"
)

// TestDriveByValidateRejections drives every rejection branch of
// DriveBy.Validate, including the delegated fault and radar configs. The
// zero value relies on defaults and must pass.
func TestDriveByValidateRejections(t *testing.T) {
	if err := (DriveBy{}).Validate(); err != nil {
		t.Fatalf("zero DriveBy means defaults and must validate: %v", err)
	}
	badRadar := radar.TI1443()
	badRadar.NumRx = 0
	cases := []struct {
		name string
		cfg  DriveBy
	}{
		{"negative stack modules", DriveBy{StackModules: -1}},
		{"shaped stack below 4 modules", DriveBy{StackModules: 3, BeamShaped: true}},
		{"shaped single module", DriveBy{StackModules: 1, BeamShaped: true}},
		{"negative standoff", DriveBy{Standoff: -3}},
		{"NaN standoff", DriveBy{Standoff: math.NaN()}},
		{"negative half-span", DriveBy{HalfSpan: -1}},
		{"negative speed", DriveBy{Speed: -4}},
		{"negative rain", DriveBy{RainMMPerHour: -10}},
		{"negative tracking error", DriveBy{TrackingError: -0.04}},
		{"FoV above 180", DriveBy{FoVDeg: 200}},
		{"negative frame budget", DriveBy{FrameBudget: -1}},
		{"negative workers", DriveBy{Workers: -1}},
		{"bad fault config", DriveBy{Fault: &fault.Config{FrameDropRate: 1.5}}},
		{"bad radar override", DriveBy{Radar: &badRadar}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if err == nil {
				t.Fatal("Validate accepted an invalid pass config")
			}
			if !errors.Is(err, roserr.ErrConfig) {
				t.Fatalf("rejection not typed ErrConfig: %v", err)
			}
		})
	}
}

// TestRunRejectsInvalidConfig asserts Run surfaces validation failures as
// typed errors before any synthesis work happens.
func TestRunRejectsInvalidConfig(t *testing.T) {
	_, err := RunContext(context.Background(), DriveBy{Bits: "1011", Speed: -1})
	if err == nil {
		t.Fatal("Run accepted a negative speed")
	}
	if !errors.Is(err, roserr.ErrConfig) {
		t.Fatalf("Run rejection not typed ErrConfig: %v", err)
	}
}
