package radar

import (
	"errors"
	"testing"

	"ros/internal/roserr"
)

// TestConfigValidateRejections drives every rejection branch of
// Config.Validate and asserts the error is typed roserr.ErrConfig, so
// misconfiguration can never be confused with a runtime fault.
func TestConfigValidateRejections(t *testing.T) {
	if err := TI1443().Validate(); err != nil {
		t.Fatalf("TI1443 must validate: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero carrier", func(c *Config) { c.CenterFrequency = 0 }},
		{"negative carrier", func(c *Config) { c.CenterFrequency = -77e9 }},
		{"zero slope", func(c *Config) { c.Slope = 0 }},
		{"zero sample rate", func(c *Config) { c.SampleRate = 0 }},
		{"too few samples", func(c *Config) { c.Samples = 7 }},
		{"non power of two samples", func(c *Config) { c.Samples = 200 }},
		{"zero frame rate", func(c *Config) { c.FrameRate = 0 }},
		{"no rx antennas", func(c *Config) { c.NumRx = 0 }},
		{"zero rx spacing", func(c *Config) { c.RxSpacing = 0 }},
		{"negative adc bits", func(c *Config) { c.ADCBits = -1 }},
		{"oversized adc bits", func(c *Config) { c.ADCBits = 31 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := TI1443()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("Validate accepted an invalid config")
			}
			if !errors.Is(err, roserr.ErrConfig) {
				t.Fatalf("rejection not typed ErrConfig: %v", err)
			}
		})
	}
}

// TestElevationValidateRejections covers the elevation extension: every
// rejection must also be typed ErrConfig.
func TestElevationValidateRejections(t *testing.T) {
	if err := TI1443Elevation().Validate(); err != nil {
		t.Fatalf("TI1443Elevation must validate: %v", err)
	}
	cases := []struct {
		name string
		err  func() error
	}{
		{"zero elevation height", func() error { e := TI1443Elevation(); e.TxHeight = 0; return e.Validate() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.err()
			if err == nil {
				t.Fatal("Validate accepted an invalid config")
			}
			if !errors.Is(err, roserr.ErrConfig) {
				t.Fatalf("rejection not typed ErrConfig: %v", err)
			}
		})
	}
}
