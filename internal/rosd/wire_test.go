package rosd

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"ros/internal/em"
	"ros/internal/fault"
	"ros/internal/radar"
	"ros/internal/roserr"
	"ros/internal/sim"
)

// TestWireMatchesInProcess pins wire equivalence: a /v1/read answered by the
// daemon carries the same result as sim.RunContext on the same pass
// configuration and seed run in-process — equal detection, bits and sample
// count, and SNR and median RSS equal to the bit after the JSON round-trip.
// Each case spells its DriveBy out by hand, so the request-to-config mapping
// is under test too. The default-radar cases differ in tag, standoff, fog
// and fault plan yet must be served by one shared engine, so the comparison
// also proves that sharing an engine across scenes changes no output.
func TestWireMatchesInProcess(t *testing.T) {
	commercial := radar.TI1443()
	commercial.FrontEnd = em.CommercialRadar()
	cases := []struct {
		name string
		req  ReadRequest
		cfg  sim.DriveBy
	}{
		{
			name: "default unshaped",
			req:  ReadRequest{Bits: "1111", FrameBudget: 96, Workers: 1, Seed: 1},
			cfg:  sim.DriveBy{Bits: "1111", FrameBudget: 96, Workers: 1, Seed: 1},
		},
		{
			name: "16 modules light fog",
			req: ReadRequest{Bits: "1011", StackModules: 16, Standoff: 2.5, Fog: "light",
				Workers: 2, Seed: 9},
			cfg: sim.DriveBy{Bits: "1011", StackModules: 16, Standoff: 2.5, Fog: em.FogLight,
				Workers: 2, Seed: 9},
		},
		{
			name: "faulted",
			req: ReadRequest{Bits: "1101", Workers: 1, Seed: 5,
				Fault: &FaultRequest{Seed: 11, DropRate: 0.1, CorruptRate: 0.05, BurstRate: 0.05}},
			cfg: sim.DriveBy{Bits: "1101", Workers: 1, Seed: 5,
				Fault: &fault.Config{Seed: 11, FrameDropRate: 0.1, CorruptRate: 0.05, BurstRate: 0.05}},
		},
		{
			name: "commercial front end",
			req: ReadRequest{Bits: "1011", Standoff: 3.2, Commercial: true,
				Workers: 2, Seed: 4},
			cfg: sim.DriveBy{Bits: "1011", Standoff: 3.2, Radar: &commercial,
				Workers: 2, Seed: 4},
		},
	}

	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	reqs := make([]ReadRequest, len(cases))
	for i, tc := range cases {
		reqs[i] = tc.req
	}
	status, resp := postReads(t, ts, reqs)
	if status != http.StatusOK {
		t.Fatalf("batch status = %d, want 200", status)
	}
	if len(resp.Results) != len(cases) {
		t.Fatalf("%d results for %d reads", len(resp.Results), len(cases))
	}
	for i, tc := range cases {
		shared := tc.cfg.Radar == nil
		if got := resp.Results[i].Engine == resp.Results[0].Engine; got != shared {
			t.Fatalf("%s: engine %s, default-radar engine %s; want shared %v",
				tc.name, resp.Results[i].Engine, resp.Results[0].Engine, shared)
		}
	}

	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wire := resp.Results[i]
			out, err := sim.RunContext(context.Background(), tc.cfg)
			if out == nil {
				t.Fatalf("in-process read returned no outcome: %v", err)
			}
			defer out.Span.Release()
			wantKind := ""
			if err != nil {
				wantKind = roserr.Kind(err)
			}
			gotKind := ""
			if wire.Error != nil {
				gotKind = wire.Error.Kind
			}
			if gotKind != wantKind {
				t.Fatalf("error kind: wire %q, in-process %q (%v)", gotKind, wantKind, err)
			}
			if out.Bits != tc.cfg.Bits {
				t.Fatalf("in-process read decoded %q, not %q; pick a configuration that decodes", out.Bits, tc.cfg.Bits)
			}
			if wire.Detected != out.Detected || wire.Bits != out.Bits ||
				wire.Samples != out.Samples || wire.FramesDropped != out.FramesDropped {
				t.Errorf("wire {detected %v bits %q samples %d dropped %d}, in-process {%v %q %d %d}",
					wire.Detected, wire.Bits, wire.Samples, wire.FramesDropped,
					out.Detected, out.Bits, out.Samples, out.FramesDropped)
			}
			if tc.cfg.Fault != nil && out.FramesDropped == 0 {
				t.Errorf("fault plan dropped no frames; the case does not exercise faults")
			}
			for _, f := range []struct {
				name       string
				wire, want float64
			}{
				{"snr_db", wire.SNRdB, out.SNRdB},
				{"median_rss_dbm", wire.MedianRSSdBm, out.MedianRSSdBm},
			} {
				if math.Float64bits(f.wire) != math.Float64bits(f.want) {
					t.Errorf("%s: wire %v, in-process %v", f.name, f.wire, f.want)
				}
			}
		})
	}
}
