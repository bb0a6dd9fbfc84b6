// Package sim runs end-to-end drive-by experiments: a vehicle-mounted FMCW
// radar passes an RoS tag on a straight trajectory, detects it among
// clutter (package detect), samples its RCS over u = cos(theta), and decodes
// the spatial code (package coding). Every evaluation figure of Sec 7
// (Fig 13-18) is a parameter sweep over this runner.
package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"ros/internal/beamshape"
	"ros/internal/coding"
	"ros/internal/detect"
	"ros/internal/dsp"
	"ros/internal/em"
	"ros/internal/engine"
	"ros/internal/fault"
	"ros/internal/geom"
	"ros/internal/obs"
	"ros/internal/radar"
	"ros/internal/roserr"
	"ros/internal/scene"
	"ros/internal/stack"
	"ros/internal/track"
)

// SpanRead is the root span of one drive-by pass; SpanDecode times the
// spectral decoder. The other stages live in the adopted detect.SpanRun
// subtree.
const (
	SpanRead   = "read"
	SpanDecode = "decode"
)

// Pass-level metrics on the Default registry, one observation per pass.
var (
	mReads = obs.Default.Counter("ros_reads_total",
		"drive-by passes run")
	mDetected = obs.Default.Counter("ros_reads_detected_total",
		"passes whose tag was detected and classified")
	mUndecodable = obs.Default.Counter("ros_reads_undecodable_total",
		"passes whose detected tag failed spectral decoding")
	hWall = obs.Default.Histogram("ros_read_wall_seconds",
		"end-to-end wall time of one pass", obs.LogBuckets(1e-3, 100, 3))
	hSNR = obs.Default.Histogram("ros_read_snr_db",
		"decoding SNR of detected passes (dB)", obs.LinearBuckets(-10, 5, 13))
	hBER = obs.Default.Histogram("ros_read_ber",
		"OOK bit error rate implied by the decoding SNR", obs.LogBuckets(1e-12, 1, 1))
	mPartial = obs.Default.Counter("ros_reads_partial_total",
		"passes cut short by cancellation or frame loss beyond budget")
	mReadsByOutcome = obs.Default.CounterVec("ros_reads_by_outcome_total",
		"passes by outcome and worker-count bucket", "outcome", "workers")
	hStage = obs.Default.HistogramVec("ros_stage_seconds",
		"per-stage time of one pass (worker-summed for the frame-loop stages)",
		obs.LogBuckets(1e-4, 10, 2), 0, "stage")
)

// Pass outcome labels for ros_reads_by_outcome_total and the flight
// recorder. "error" covers passes that failed outright (not partials, which
// keep their own label).
const (
	OutcomeOK          = "ok"
	OutcomePartial     = "partial"
	OutcomeError       = "error"
	OutcomeNoTag       = "no_tag"
	OutcomeUndecodable = "undecodable"
)

// classify maps a finished pass onto its outcome label.
func classify(out *Outcome, err error) string {
	switch {
	case out.Partial:
		return OutcomePartial
	case err != nil:
		return OutcomeError
	case !out.Detected:
		return OutcomeNoTag
	case out.Bits == "":
		return OutcomeUndecodable
	}
	return OutcomeOK
}

// fingerprint condenses the pass configuration into the short hex id flight
// entries carry. Pointer fields are rendered by value (or dropped when nil)
// and the seed is excluded — the fingerprint identifies the configuration,
// the seed identifies the read.
func fingerprint(cfg DriveBy, rcfg radar.Config) string {
	c := cfg
	c.Radar, c.Fault, c.Seed = nil, nil, 0
	parts := []string{fmt.Sprintf("%+v", c), fmt.Sprintf("%+v", rcfg)}
	if cfg.Fault != nil {
		parts = append(parts, fmt.Sprintf("%+v", *cfg.Fault))
	}
	return obs.Fingerprint(parts...)
}

// DriveBy configures one pass.
type DriveBy struct {
	// Bits is the tag's bit string (e.g. "1111").
	Bits string
	// StackModules is the number of PSVAAs per stack (8, 16 or 32).
	StackModules int
	// BeamShaped selects elevation beam shaping (Sec 4.3); the Fig 14
	// baseline sets it false. Shaping needs at least 4 modules.
	BeamShaped bool
	// Standoff is the radar-to-tag closest distance in meters.
	Standoff float64
	// HalfSpan is half the along-road pass length in meters (default
	// 1.4x standoff, covering ~+/-54 deg of viewing angle).
	HalfSpan float64
	// Speed is the vehicle speed in m/s (default 2, the cart of Sec 7.1).
	Speed float64
	// HeightOffset raises the radar above the tag center (elevation
	// misalignment, Fig 14).
	HeightOffset float64
	// Fog is the weather condition (Fig 16c).
	Fog em.FogLevel
	// RainMMPerHour adds rain at the given precipitation rate (Sec 7.3).
	RainMMPerHour float64
	// TrackingError is the relative self-tracking drift (Fig 16d).
	TrackingError float64
	// FoVDeg truncates the angular view of the tag (Fig 17); 0 means the
	// default 120 deg (the radar-pattern-limited view).
	FoVDeg float64
	// WithClutter adds the Fig 13 object lineup near the tag.
	WithClutter bool
	// DisablePolSwitching ablates the PSVAA design (see scene.Scene).
	DisablePolSwitching bool
	// BlockerHalfLength parks an opaque vehicle-height slab of this
	// half-length (m) halfway between the radar lane and the tag, centered
	// on the tag (Sec 7.3's blockage scenario); 0 disables it.
	BlockerHalfLength float64
	// RedundantTagOffset places a second identical tag this far down the
	// road (the paper's blockage mitigation: "installing redundant RoS
	// tags along the road"); 0 disables it.
	RedundantTagOffset float64
	// GroundMultipath adds the two-ray road-surface bounce to every path
	// (bumper-height radar over asphalt).
	GroundMultipath bool
	// SecondTagSpreadDeg places a second identical tag at this spread
	// angle seen from the closest pass point (Fig 16a); 0 disables it.
	SecondTagSpreadDeg float64
	// InterfererSeparation enables a second interrogating radar this many
	// meters away (Fig 16b); 0 disables it.
	InterfererSeparation float64
	// FrameBudget caps the number of simulated frames (processing
	// decimation; the radar's 1 kHz frame rate is far above the Nyquist
	// need of Eq 9). Default 280.
	FrameBudget int
	// Radar overrides the radar configuration (default TI1443).
	Radar *radar.Config
	// Seed drives all randomness. Equal seeds reproduce the outcome
	// exactly at any Workers setting.
	Seed int64
	// Workers is the worker count for the per-frame radar loop; 0 uses
	// GOMAXPROCS.
	Workers int
	// Fault enables deterministic fault injection in the frame loop (see
	// internal/fault); nil injects nothing. Fault decisions draw from a
	// salted seed stream, so they never perturb the physics randomness.
	Fault *fault.Config
	// Engine, when non-nil, supplies the resource handle all memoized state
	// of the pass — the synthesis plan, the scene-response memo — is drawn
	// from and accounted against; nil uses engine.Default(). Frame buffers
	// are not memoized state: they come from the radar package's one pool
	// whatever the Engine. Results are byte-identical either way.
	Engine *engine.Engine
}

// Validate reports whether the pass configuration is usable. It checks the
// fields as given (before defaulting), wrapping every rejection in
// roserr.ErrConfig.
func (d DriveBy) Validate() error {
	switch {
	case d.StackModules < 0:
		return fmt.Errorf("sim: %w: negative stack modules %d", roserr.ErrConfig, d.StackModules)
	case d.BeamShaped && d.StackModules > 0 && d.StackModules < 4:
		return fmt.Errorf("sim: %w: beam shaping needs at least 4 modules, got %d", roserr.ErrConfig, d.StackModules)
	case d.Standoff < 0 || math.IsNaN(d.Standoff):
		return fmt.Errorf("sim: %w: negative standoff %g", roserr.ErrConfig, d.Standoff)
	case d.HalfSpan < 0 || math.IsNaN(d.HalfSpan):
		return fmt.Errorf("sim: %w: negative half-span %g", roserr.ErrConfig, d.HalfSpan)
	case d.Speed < 0 || math.IsNaN(d.Speed):
		return fmt.Errorf("sim: %w: negative speed %g", roserr.ErrConfig, d.Speed)
	case d.RainMMPerHour < 0 || math.IsNaN(d.RainMMPerHour):
		return fmt.Errorf("sim: %w: negative rain rate %g", roserr.ErrConfig, d.RainMMPerHour)
	case d.TrackingError < 0 || math.IsNaN(d.TrackingError):
		return fmt.Errorf("sim: %w: negative tracking error %g", roserr.ErrConfig, d.TrackingError)
	case d.FoVDeg < 0 || d.FoVDeg > 180:
		return fmt.Errorf("sim: %w: FoV %g outside [0, 180]", roserr.ErrConfig, d.FoVDeg)
	case d.FrameBudget < 0:
		return fmt.Errorf("sim: %w: negative frame budget %d", roserr.ErrConfig, d.FrameBudget)
	case d.Workers < 0:
		return fmt.Errorf("sim: %w: negative worker count %d", roserr.ErrConfig, d.Workers)
	}
	if d.Fault != nil {
		if err := d.Fault.Validate(); err != nil {
			return err
		}
	}
	if d.Radar != nil {
		if err := d.Radar.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Stats counts the work done by one pass. It is the one flat view of the
// pass's span tree (Outcome.Span, see StatsFromSpan); per-stage frame-loop
// times are summed across workers (CPU time), WallNS is the end-to-end wall
// clock.
type Stats struct {
	// Frames is the number of radar frames synthesized: one detection-mode
	// frame per pose, plus, after clustering, one decode-mode frame replayed
	// per time-domain pose (quantizing ADC, or sample faults, which also
	// synthesize it once up front to count scrubbed samples) that sees a
	// candidate. Ideal-converter poses read decode bins in closed form;
	// dropped poses synthesize nothing.
	Frames int
	// FFTCalls is the number of fast-time FFTs run by the range
	// transforms: NumRx per frame transformed (a pose dropped as corrupt
	// is synthesized but not transformed).
	FFTCalls int64
	// Workers is the resolved frame-loop worker count.
	Workers int
	// SynthesizeNS, RangeFFTNS and PointCloudNS are summed per-worker
	// nanoseconds of the frame loop's three stages.
	SynthesizeNS, RangeFFTNS, PointCloudNS int64
	// ClusterNS and SpotlightNS time clustering and the spotlight passes
	// (decode replay, beamforming).
	ClusterNS, SpotlightNS int64
	// DecodeNS times the spectral decoder.
	DecodeNS int64
	// WallNS is the wall clock of the whole pass.
	WallNS int64
}

// Outcome reports one pass.
type Outcome struct {
	// Detected tells whether the tag cluster was found and classified.
	Detected bool
	// Bits is the decoded bit string (empty when undetected).
	Bits string
	// Correct tells whether Bits matches the encoded string.
	Correct bool
	// SNRdB is the decoding SNR (Sec 7.1); -Inf when undetected.
	SNRdB float64
	// BER is the OOK bit error rate implied by SNRdB.
	BER float64
	// MedianRSSdBm is the median decode-mode spotlight RSS of the tag
	// across the pass (the y axis of Fig 14a/15a).
	MedianRSSdBm float64
	// RSSLossDB is the tag's polarization loss feature.
	RSSLossDB float64
	// Samples is the number of (u, RSS) samples that reached the decoder.
	Samples int
	// Detection carries the full pipeline result for diagnostics.
	Detection *detect.Result
	// Decode carries the decoder result (nil when undetected).
	Decode *coding.Result
	// Partial marks a pass cut short by cancellation or frame loss beyond
	// the budget; the accompanying error carries the cause (it matches
	// roserr.ErrReadCancelled or roserr.ErrFrameCorrupt by errors.Is).
	Partial bool
	// FramesCompleted and FramesDropped count frame poses that produced
	// usable profiles and poses lost to faults; SamplesScrubbed counts
	// non-finite baseband samples repaired before the range transform.
	FramesCompleted, FramesDropped, SamplesScrubbed int
	// FlightSeq is the pass's sequence number in the flight recorder
	// (obs.DefaultFlight), or -1 when the sampling policy skipped it.
	FlightSeq int64
	// Span is the pass's trace tree: a "read" root adopting the "detect"
	// subtree plus a "decode" stage. Callers that do not retain it may
	// Release it to return the nodes to the span pool.
	Span *obs.Span
	// Stats counts the pass's work (a flat view of Span).
	Stats Stats
}

// StatsFromSpan flattens a pass span tree — the "read" root with its
// adopted "detect" subtree — into the Stats view.
func StatsFromSpan(root *obs.Span) Stats {
	if root == nil {
		return Stats{}
	}
	st := Stats{
		DecodeNS: root.ChildDuration(SpanDecode).Nanoseconds(),
		WallNS:   root.Wall().Nanoseconds(),
	}
	if det := root.Child(detect.SpanRun); det != nil {
		st.Frames = int(det.IntAttr("frames"))
		st.FFTCalls = det.IntAttr("fft_calls")
		st.Workers = int(det.IntAttr("workers"))
		st.SynthesizeNS = det.ChildDuration(detect.SpanSynthesize).Nanoseconds()
		st.RangeFFTNS = det.ChildDuration(detect.SpanRangeFFT).Nanoseconds()
		st.PointCloudNS = det.ChildDuration(detect.SpanPointCloud).Nanoseconds()
		st.ClusterNS = det.ChildDuration(detect.SpanCluster).Nanoseconds()
		st.SpotlightNS = det.ChildDuration(detect.SpanSpotlight).Nanoseconds()
	}
	return st
}

// defaults fills zero-valued fields.
func (d *DriveBy) defaults() {
	if d.Bits == "" {
		d.Bits = "1111"
	}
	if d.StackModules == 0 {
		d.StackModules = 32
	}
	if d.Standoff == 0 {
		d.Standoff = 3
	}
	if d.HalfSpan == 0 {
		d.HalfSpan = 1.4 * d.Standoff
	}
	if d.Speed == 0 {
		d.Speed = 2
	}
	if d.FrameBudget == 0 {
		d.FrameBudget = 280
	}
}

// buildStack assembles the tag's vertical stack.
func buildStack(modules int, shaped bool) *stack.Stack {
	if shaped {
		return beamshape.Shaped(modules)
	}
	return stack.NewUniform(modules)
}

// RunContext executes the pass under ctx. Cancellation is cooperative at
// frame and stage boundaries: a cancelled or deadline-expired pass returns
// promptly with a partial Outcome (Partial set, frame counters filled) and
// an error matching both roserr.ErrReadCancelled and the context cause.
func RunContext(ctx context.Context, cfg DriveBy) (_ *Outcome, rerr error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := obs.StartSpan(SpanRead)
	// Release the root span on paths that never hand it to an Outcome, so
	// configuration errors do not strand pool nodes.
	adopted := false
	defer func() {
		if !adopted {
			root.Release()
		}
	}()
	cfg.defaults()
	// The root rng drives the sequential setup (clutter geometry, platform
	// vibration, tracking drift); the per-frame noise streams inside the
	// detection pipeline are derived independently from cfg.Seed, so the
	// parallel frame loop stays deterministic at any worker count.
	rng := rand.New(rand.NewSource(cfg.Seed))

	bits, err := coding.ParseBits(cfg.Bits)
	if err != nil {
		return nil, err
	}
	layout, err := coding.NewLayout(bits, coding.DefaultDelta())
	if err != nil {
		return nil, err
	}
	st := buildStack(cfg.StackModules, cfg.BeamShaped)
	tag, err := scene.NewTag(layout, st, geom.Vec3{})
	if err != nil {
		return nil, err
	}
	eng := cfg.Engine
	if eng == nil {
		eng = engine.Default()
	}
	sc := &scene.Scene{
		Tags:                []*scene.Tag{tag},
		Fog:                 cfg.Fog,
		RainMMPerHour:       cfg.RainMMPerHour,
		DisablePolSwitching: cfg.DisablePolSwitching,
		Responses:           eng.Responses,
	}
	if cfg.GroundMultipath {
		sc.Ground = scene.DefaultGround()
	}
	if cfg.BlockerHalfLength > 0 {
		sc.Blockers = append(sc.Blockers, scene.Blocker{
			X0:  -cfg.BlockerHalfLength,
			X1:  cfg.BlockerHalfLength,
			Y:   cfg.Standoff / 2,
			Top: 1.5, // a sedan-height slab relative to the radar plane
		})
	}

	if cfg.SecondTagSpreadDeg > 0 {
		off := cfg.Standoff * math.Tan(geom.Rad(cfg.SecondTagSpreadDeg))
		tag2, err := scene.NewTag(layout, st, geom.Vec3{X: off})
		if err != nil {
			return nil, err
		}
		sc.Tags = append(sc.Tags, tag2)
	}
	if cfg.RedundantTagOffset > 0 {
		spare, err := scene.NewTag(layout, st, geom.Vec3{X: cfg.RedundantTagOffset})
		if err != nil {
			return nil, err
		}
		sc.Tags = append(sc.Tags, spare)
	}
	if cfg.WithClutter {
		sc.Clutter = append(sc.Clutter,
			scene.NewObject(scene.ClassParkingMeter, geom.Vec3{X: -1.5, Y: -0.3}, rng),
			scene.NewObject(scene.ClassStreetLamp, geom.Vec3{X: 1.8, Y: -0.4}, rng),
			scene.NewObject(scene.ClassTree, geom.Vec3{X: 3.0, Y: -0.8}, rng),
		)
	}

	rcfg := radar.TI1443()
	if cfg.Radar != nil {
		rcfg = *cfg.Radar
	}
	if cfg.InterfererSeparation > 0 {
		// A second radar interrogating the same tag raises the victim's
		// noise floor; retroreflection (Fig 4b) and the angular
		// transience of specular cross-paths (Sec 7.3) keep the raise
		// small and falling with separation.
		rcfg.FrontEnd.NoiseFigureDB += 2.5 / cfg.InterfererSeparation
	}

	// Trajectory: decimate the radar's native frame rate to the budget.
	totalDist := 2 * cfg.HalfSpan
	nativeFrames := int(totalDist / cfg.Speed * rcfg.FrameRate)
	frames := cfg.FrameBudget
	if nativeFrames < frames {
		frames = nativeFrames
	}
	if frames < 32 {
		return nil, fmt.Errorf("sim: %w: only %d frames over the pass; slow down or extend the span", roserr.ErrConfig, frames)
	}
	truth := make([]geom.Vec3, frames)
	for i := range truth {
		x := -cfg.HalfSpan + totalDist*float64(i)/float64(frames-1)
		truth[i] = geom.Vec3{X: x, Y: cfg.Standoff, Z: cfg.HeightOffset}
	}
	// Speed-dependent platform vibration (Sec 7.3 attributes the SNR
	// variation at driving speeds to the more dynamic condition).
	if cfg.Speed > 3 {
		jitter := 0.0005 * cfg.Speed // ~7 mm at 30 mph
		for i := range truth {
			truth[i].Z += rng.NormFloat64() * jitter
			truth[i].Y += rng.NormFloat64() * jitter * 0.5
		}
	}

	est := truth
	if cfg.TrackingError > 0 {
		est, err = track.Tracker{RelativeError: cfg.TrackingError}.Estimate(truth, rng)
		if err != nil {
			return nil, err
		}
	}

	p := detect.NewPipeline(rcfg)
	if cfg.Standoff > 3 {
		// Cross-range blur grows linearly with range (r * angular error);
		// scale the point-cloud size threshold to match.
		p.TagMaxExtent *= cfg.Standoff / 3
	}
	if cfg.FoVDeg > 0 {
		p.DecodeAzimuthCapDeg = cfg.FoVDeg / 2
	}
	if cfg.SecondTagSpreadDeg > 0 {
		// The two-tag micro-benchmark (Fig 16a) places tags at known
		// positions; decode the first tag even when the two clouds fuse.
		p.ForceTagNear = &geom.Vec2{}
	}
	p.Workers = cfg.Workers
	p.Engine = eng
	var inj *fault.Injector
	if cfg.Fault != nil {
		inj, err = fault.New(*cfg.Fault)
		if err != nil {
			return nil, err
		}
		p.Fault = inj
	}
	vel := geom.Vec3{X: cfg.Speed}
	res, err := p.RunContext(ctx, sc, truth, est, vel, cfg.Seed)
	if err != nil && res == nil {
		obs.Logger().Error("sim: pipeline failed",
			"bits", cfg.Bits, "seed", cfg.Seed, "err", err)
		return nil, err
	}
	root.Adopt(res.Span)
	adopted = true

	out := &Outcome{Detection: res, SNRdB: math.Inf(-1), BER: 0.5, MedianRSSdBm: math.Inf(-1),
		Partial:         res.Partial,
		FramesCompleted: res.FramesCompleted,
		FramesDropped:   res.FramesDropped,
		SamplesScrubbed: res.SamplesScrubbed,
	}
	// Close the span tree and derive the flat Stats view on every return
	// path below; the pass-level metrics observe the same numbers and the
	// flight recorder gets the finished pass offered for sampling.
	out.FlightSeq = -1
	defer func() {
		root.End()
		root.SetAttr("detected", out.Detected)
		out.Span = root
		out.Stats = StatsFromSpan(root)
		mReads.Inc()
		if out.Partial {
			mPartial.Inc()
		}
		hWall.Observe(float64(out.Stats.WallNS) / 1e9)
		if out.Detected {
			mDetected.Inc()
			if !math.IsInf(out.SNRdB, -1) {
				hSNR.Observe(out.SNRdB)
				hBER.Observe(out.BER)
			}
		}
		outcome := classify(out, rerr)
		mReadsByOutcome.With(outcome, obs.BucketWorkers(out.Stats.Workers)).Inc()
		for _, st := range []struct {
			name string
			ns   int64
		}{
			{detect.SpanSynthesize, out.Stats.SynthesizeNS},
			{detect.SpanRangeFFT, out.Stats.RangeFFTNS},
			{detect.SpanPointCloud, out.Stats.PointCloudNS},
			{detect.SpanCluster, out.Stats.ClusterNS},
			{detect.SpanSpotlight, out.Stats.SpotlightNS},
			{SpanDecode, out.Stats.DecodeNS},
		} {
			if st.ns > 0 {
				hStage.With(st.name).Observe(float64(st.ns) / 1e9)
			}
		}
		// Flight entry: the cheap fields feed the sampling policy; the
		// config fingerprint and span tree view are captured only for
		// entries the policy keeps. The view deep-copies the tree, so the
		// entry survives callers releasing Outcome.Span back to the pool.
		entry := &obs.FlightEntry{
			Outcome:         outcome,
			Seed:            cfg.Seed,
			Workers:         out.Stats.Workers,
			SNRdB:           obs.JSONFloat(out.SNRdB),
			BER:             obs.JSONFloat(out.BER),
			WallMs:          float64(out.Stats.WallNS) / 1e6,
			FramesCompleted: out.FramesCompleted,
			FramesDropped:   out.FramesDropped,
			SamplesScrubbed: out.SamplesScrubbed,
			FaultKinds:      inj.Kinds(frames).Labels(),
		}
		if rerr != nil {
			entry.Err = rerr.Error()
		}
		if seq, ok := obs.DefaultFlight.Offer(entry, func(e *obs.FlightEntry) {
			e.ConfigFP = fingerprint(cfg, rcfg)
			v := root.View()
			e.Spans = &v
		}); ok {
			out.FlightSeq = seq
		}
	}()
	if err != nil {
		// Partial pipeline result: cancellation or frame loss past the
		// budget. Surface what completed alongside the typed error.
		return out, fmt.Errorf("sim: %w", err)
	}
	if res.TagIndex < 0 || len(res.TagU) < 16 {
		if res.TagIndex >= 0 {
			obs.Logger().Info("sim: tag found but too few RCS samples to decode",
				"samples", len(res.TagU), "seed", cfg.Seed)
		}
		return out, nil
	}
	out.Detected = true
	out.RSSLossDB = res.Objects[res.TagIndex].RSSLossDB
	out.Samples = len(res.TagU)

	// Median decode-mode RSS: TagRSS is d^4-compensated for decoding, so
	// undo the compensation with the per-sample ranges to report the raw
	// received power of Fig 14a/15a.
	var rssDBm []float64
	for i, r := range res.TagRange {
		if r > 0 {
			rssDBm = append(rssDBm, em.DBm(res.TagRSS[i]/(r*r*r*r)))
		}
	}
	// dsp.Median returns -Inf for an empty slice, so an all-invalid-range
	// pass reports "lost" rather than a bogus 0 dBm.
	out.MedianRSSdBm = dsp.Median(rssDBm)

	// Stage boundary: detection done, decoding next.
	if cerr := context.Cause(ctx); cerr != nil {
		out.Partial = true
		return out, fmt.Errorf("sim: read cancelled before decoding: %w: %w", roserr.ErrReadCancelled, cerr)
	}
	dec, err := coding.NewDecoder(len(bits), layout.Delta, rcfg.Wavelength())
	if err != nil {
		return out, err
	}
	decSp := root.StartChild(SpanDecode)
	decoded, err := dec.Decode(res.TagU, res.TagRSS, eng)
	decSp.End()
	if err != nil {
		// Detected but undecodable: report as such — but no longer
		// silently (this was a swallowed-error path before the obs layer).
		mUndecodable.Inc()
		obs.Logger().Warn("sim: tag detected but undecodable",
			"bits", cfg.Bits, "seed", cfg.Seed,
			"samples", len(res.TagU), "err", err)
		return out, nil
	}
	out.Decode = decoded
	out.Bits = coding.BitsString(decoded.Bits)
	out.Correct = out.Bits == cfg.Bits
	out.SNRdB = decoded.SNRdB
	out.BER = decoded.BER
	return out, nil
}
