package detect

import (
	"errors"
	"testing"

	"ros/internal/radar"
	"ros/internal/roserr"
)

// TestPipelineValidateRejections drives every rejection branch of
// Pipeline.Validate. Zero values mean "use the default" and must pass;
// negative or out-of-range values must fail with a typed ErrConfig.
func TestPipelineValidateRejections(t *testing.T) {
	if err := NewPipeline(radar.TI1443()).Validate(); err != nil {
		t.Fatalf("default pipeline must validate: %v", err)
	}
	zero := &Pipeline{Radar: radar.TI1443()}
	if err := zero.Validate(); err != nil {
		t.Fatalf("all-zero thresholds mean defaults and must validate: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Pipeline)
	}{
		{"bad radar", func(p *Pipeline) { p.Radar.Samples = 0 }},
		{"negative extent", func(p *Pipeline) { p.TagMaxExtent = -0.5 }},
		{"azimuth cap above 90", func(p *Pipeline) { p.DecodeAzimuthCapDeg = 91 }},
		{"negative workers", func(p *Pipeline) { p.Workers = -2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPipeline(radar.TI1443())
			tc.mutate(p)
			err := p.Validate()
			if err == nil {
				t.Fatal("Validate accepted an invalid pipeline")
			}
			if !errors.Is(err, roserr.ErrConfig) {
				t.Fatalf("rejection not typed ErrConfig: %v", err)
			}
		})
	}
}
