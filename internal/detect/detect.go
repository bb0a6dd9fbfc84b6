// Package detect implements the tag detection pipeline of Sec 6: per-frame
// radar point clouds are merged using the vehicle's (estimated) ego
// positions, clustered with DBSCAN, filtered by point density, and
// "spotlighted" with beamforming in both polarization modes. The two
// features of Fig 13 — polarization RSS loss and point-cloud size — then
// single out the RoS tag among roadside objects, and the tag's per-frame
// decode-mode RSS over u = cos(theta) feeds the spatial decoder.
//
// The per-frame synthesis loop — by far the dominant cost of a drive-by —
// runs on the sweep worker pool. Every frame draws its randomness from a
// private rand.Rand seeded with sweep.SubSeed(seed, frame), so a run's
// output depends only on the seed and is byte-identical at any worker
// count. The spotlight passes (per-object classification and the decode-mode
// RCS sampling) fan out on the same pool: objects and frames are independent,
// and the only randomness they draw — the bin-domain noise of decode-mode
// bins — comes from a stream keyed by (seed, frame, bin), so results are
// collected in index order and stay byte-identical at any worker count
// there too.
//
// Decode mode is read at a few range bins per frame (one per classified
// object, one for the tag), so pass 1 keeps only the frame's decode-mode
// scatterers. On the ideal converter (ADCBits == 0) the bins read are
// evaluated in closed form (radar.SynthPlan.BinSpectrum). The quantizer and
// injected sample faults act on the time-domain frame, so after clustering
// replayDecode re-synthesizes those frames once each and keeps only the
// columns a candidate cluster can be read at: no decode profile outlives
// its frame.
//
// Robustness: RunContext threads a context through every stage with
// cooperative cancellation checks at frame and stage boundaries — a
// cancelled or deadline-expired run returns promptly with a partial Result
// (Partial set, frames completed so far) and an error matching both
// roserr.ErrReadCancelled and the context cause. The optional fault layer
// (Pipeline.Fault) injects deterministic frame drops, sample corruption,
// worker panics and latency; the pipeline degrades gracefully — non-finite
// samples are scrubbed before the range transform, lost frames are excluded
// from the aggregate up to maxFrameLoss, and beyond that budget the run
// fails with a typed roserr.ErrFrameCorrupt.
package detect

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"ros/internal/cluster"
	"ros/internal/dsp"
	"ros/internal/em"
	"ros/internal/engine"
	"ros/internal/fault"
	"ros/internal/geom"
	"ros/internal/obs"
	"ros/internal/radar"
	"ros/internal/roserr"
	"ros/internal/scene"
	"ros/internal/sweep"
)

// Pipeline-level metrics, accumulated on the Default registry once per pass
// over the frames (never per frame, so the hot loop pays nothing for them).
var (
	mRuns = obs.Default.Counter("ros_pipeline_runs_total",
		"detection pipeline runs")
	mFrames = obs.Default.Counter("ros_frames_synthesized_total",
		"radar frames synthesized (detection mode per pose, plus decode mode replayed for quantized and sample-faulted poses)")
	mFFTs = obs.Default.Counter("ros_fft_calls_total",
		"fast-time FFTs run by the range transforms")
	mTagsFound = obs.Default.Counter("ros_tags_detected_total",
		"pipeline runs that classified a tag")
	mFramesDropped = obs.Default.Counter("ros_frames_dropped_total",
		"frame poses lost to drops, corruption, or worker failure")
	mFramesDroppedByKind = obs.Default.CounterVec("ros_frames_dropped_by_kind_total",
		"frame poses lost, by failure kind", "kind")
	mSamplesScrubbed = obs.Default.Counter("ros_samples_scrubbed_total",
		"non-finite baseband samples zeroed before the range transform")
)

// The Sec 6 clustering and classification thresholds.
const (
	// clusterEps is the DBSCAN neighbourhood radius in meters.
	clusterEps = 0.25
	// clusterMinPts is the DBSCAN core threshold: real object clusters
	// accumulate hundreds of points over a pass, so a strict core rule
	// keeps sparse strays from bridging neighbouring objects.
	clusterMinPts = 10
	// minClusterFrames drops clusters seen in too few frames, the density
	// filter of Sec 6: real objects accumulate hundreds of points over a
	// pass while multipath ghosts appear in a handful.
	minClusterFrames = 25
	// tagMaxRSSLossDB is the RSS-loss feature threshold: tags lose less
	// than this when the radar switches polarization (between the tag's
	// ~13 and clutter's 16-19 dB, Fig 13a; weak clutter reads slightly
	// below its true rejection near the noise floor, so the threshold
	// leans toward the tag's side).
	tagMaxRSSLossDB = 14.2
	// detGate is classifyObject's detection-mode gate: a frame counts
	// when its beamformed power, less the expected beamformed noise,
	// exceeds detGate times that noise. columnFloor derives from it.
	detGate = 4
)

// spotNoise is the expected beamformed noise power the spotlight subtracts:
// the Hann-windowed range transform leaves 1.5x NoisePerBin per channel,
// and beamforming over NumRx channels divides it by NumRx. The detection
// gate, and with it columnFloor, is a multiple of it.
func (p *Pipeline) spotNoise() float64 {
	return 1.5 * p.Radar.NoisePerBin() / float64(p.Radar.NumRx)
}

// columnFloor is the store floor pass 1 keeps columns against: a bin is kept
// when its autocorrelation steering bound R reaches NumRx times the floor
// (radar.Columns). No azimuth steers a column above R/NumRx^2, and the
// detection gate (SteerPower - noise > detGate*noise) needs
// SteerPower > (detGate+1)*noise, so a bin the gate can pass has
// R > (detGate+1)*noise*NumRx^2. The floor sits 1% under that bound to cover
// rounding, so every bin classifyObject can use is kept.
func (p *Pipeline) columnFloor() float64 {
	return 0.99 * (detGate + 1) * p.spotNoise() * float64(p.Radar.NumRx)
}

// Pipeline holds the detector configuration.
type Pipeline struct {
	// Radar is the interrogating radar.
	Radar radar.Config
	// TagMaxExtent is the point-cloud size feature threshold in meters
	// (default 0.18: the tag's compact cloud measures 0.08-0.16 after
	// range quantization, angle-estimation blur, and platform vibration at
	// driving speeds, while meters/lamps/signs/trees measure 0.18-0.7,
	// Fig 13b; pedestrians can slip under it but fail the RSS-loss test).
	TagMaxExtent float64
	// ForceTagNear, when non-nil, marks the cluster nearest this world
	// position (within 0.5 m) as the tag regardless of the feature test —
	// the controlled micro-benchmarks of Fig 16a place tags at known
	// positions.
	ForceTagNear *geom.Vec2
	// DecodeAzimuthCapDeg limits the azimuth (degrees from boresight)
	// within which the tag's RCS is sampled for decoding; default 60, the
	// radar antenna FoV. Fig 17 sweeps it to truncate the angular view.
	DecodeAzimuthCapDeg float64
	// Workers is the worker count for the per-frame synthesis loop and the
	// spotlight passes; 0 uses GOMAXPROCS. The output is identical at any
	// worker count.
	Workers int
	// Fault injects deterministic faults into the frame loop (nil = off;
	// see internal/fault). With Fault nil the pipeline's output is
	// byte-identical to a build that never loads the fault layer.
	Fault *fault.Injector
	// Engine supplies the resource handle the run draws its synthesis plan
	// (and with it the steering table and range transform) from; nil uses
	// engine.Default(). Frame and profile buffers come from the radar
	// package's one pool whatever the Engine. Results are byte-identical
	// either way.
	Engine *engine.Engine
}

// NewPipeline returns a pipeline with the paper's defaults around the given
// radar.
func NewPipeline(cfg radar.Config) *Pipeline {
	return &Pipeline{
		Radar:               cfg,
		TagMaxExtent:        0.18,
		DecodeAzimuthCapDeg: 60,
	}
}

// Validate reports whether the pipeline configuration is usable. Zero values
// mean "use the default" and pass; negative or out-of-range values are
// rejected with roserr.ErrConfig, so fault injection can never be confused
// with misconfiguration.
func (p *Pipeline) Validate() error {
	if err := p.Radar.Validate(); err != nil {
		return err
	}
	switch {
	case p.TagMaxExtent < 0 || math.IsNaN(p.TagMaxExtent):
		return fmt.Errorf("detect: %w: negative extent threshold %g", roserr.ErrConfig, p.TagMaxExtent)
	case p.DecodeAzimuthCapDeg < 0 || p.DecodeAzimuthCapDeg > 90:
		return fmt.Errorf("detect: %w: decode azimuth cap %g outside [0, 90]", roserr.ErrConfig, p.DecodeAzimuthCapDeg)
	case p.Workers < 0:
		return fmt.Errorf("detect: %w: negative worker count %d", roserr.ErrConfig, p.Workers)
	}
	return nil
}

// ObjectReport describes one clustered roadside object.
type ObjectReport struct {
	// Centroid is the estimated object location (world frame).
	Centroid geom.Vec2
	// Extent is the point-cloud size feature (meters).
	Extent float64
	// Points is the number of merged point-cloud detections.
	Points int
	// RSSLossDB is the median polarization RSS loss feature.
	RSSLossDB float64
	// MedianRSSDetectDBm is the median detection-mode spotlight RSS.
	MedianRSSDetectDBm float64
	// IsTag is the two-feature classification verdict.
	IsTag bool
}

// Result is the output of a full drive-by detection run.
type Result struct {
	// Objects lists every cluster that survived the density filter.
	Objects []ObjectReport
	// TagIndex points into Objects (-1 when no tag was found).
	TagIndex int
	// TagU and TagRSS are the tag's per-frame observation coordinate and
	// decode-mode spotlight RSS (path-loss compensated), the decoder's
	// input; TagRange holds the matching radar-to-tag distances.
	TagU, TagRSS, TagRange []float64
	// MergedPoints is the merged world-frame point cloud (diagnostics,
	// Fig 11b).
	MergedPoints []cluster.Point
	// Partial marks a run cut short by cancellation or failed past the
	// frame-loss budget; the accompanying error carries the cause.
	Partial bool
	// FramesCompleted counts frame poses that produced usable range
	// profiles; FramesDropped counts poses lost to injected drops,
	// corruption past the repair threshold, or worker failure. Poses a
	// cancelled run never reached appear in neither.
	FramesCompleted, FramesDropped int
	// SamplesScrubbed counts non-finite baseband samples zeroed before the
	// range transform across the whole run.
	SamplesScrubbed int
	// Span is the run's trace tree ("detect" with per-stage children and
	// the frames, fft_calls and workers attributes; the spotlight child
	// carries decode_bins). Callers that do not retain Span may Release it
	// to return the nodes to the span pool.
	Span *obs.Span
}

// Span and stage names of the detection pipeline trace.
const (
	SpanRun        = "detect"
	SpanSynthesize = "synthesize"
	SpanRangeFFT   = "range_fft"
	SpanPointCloud = "point_cloud"
	SpanCluster    = "cluster"
	SpanSpotlight  = "spotlight"
)

// frameData is the per-frame output of the parallel synthesis stage.
type frameData struct {
	// cols holds the detection-mode profile's columns that classifyObject
	// can use (columnFloor); the profile itself is released once the
	// frame's scan returns. decodeReader evaluates decode-mode bins from
	// decScat, the scatterers, unless replay marks a time-domain decode
	// frame (quantizer or sample faults): replayDecode then re-synthesizes
	// it from decNoise, the frame's Gauss stream position after the
	// detection frame, and swaps decScat for dec, the columns read.
	cols     *radar.Columns
	dec      *radar.Columns
	decScat  []radar.Scatterer
	decNoise int64
	replay   bool
	points   []cluster.Point
	// synthesized and transformed count the frames this pose synthesized
	// and range-transformed (the frames and fft_calls work counters).
	synthesized, transformed int
	// ok marks frames whose profiles are valid; dropped marks frames lost
	// to injected drops or corruption past the repair threshold (a frame a
	// cancelled run never reached is neither ok nor dropped). dropKind
	// labels the loss ("drop", "corrupt", "worker") for the per-kind
	// counter; scrubbed counts non-finite samples repaired before the range
	// transform.
	ok, dropped bool
	dropKind    string
	scrubbed    int
}

// Frame-loss kinds for frameData.dropKind and the per-kind drop counter.
const (
	dropKindDrop    = "drop"    // injected whole-frame loss
	dropKindCorrupt = "corrupt" // corruption past the scrub repair threshold
	dropKindWorker  = "worker"  // worker failure (recovered panic or error)
)

// tagSample is the per-frame output of the parallel decode-mode RCS
// sampling pass; ok marks frames where the tag was within the radar's view.
type tagSample struct {
	u, rss, r float64
	ok        bool
}

// maxScrubFraction is the repair threshold: a frame with more than this
// fraction of its samples non-finite carries no trustworthy signal and is
// dropped as corrupt rather than scrubbed and kept.
const maxScrubFraction = 0.25

// maxFrameLoss is the tolerated fraction of frame poses lost to drops,
// corruption, or worker failure before the run fails with
// roserr.ErrFrameCorrupt. The decoder reads from an aggregate of azimuth
// samples, so partial frame loss degrades SNR rather than correctness.
const maxFrameLoss = 0.5

// noiseSeed derives the frame's thermal-noise sub-stream seed: the scene
// draws consume the frame stream SubSeed(seed, i) through their own
// rand.Rand, while the batched Gaussian noise runs on an independent
// SplitMix64 stream remixed from it — both pure functions of (seed, i), so
// the run stays byte-identical at any worker count.
func noiseSeed(seed int64, i int) int64 {
	return sweep.SubSeed(sweep.SubSeed(seed, i), 1)
}

// synthesizeFrames is pass 1 of Run: synthesize the detection-mode frame per
// pose, extract the detection-mode point cloud in world coordinates, and keep
// the detection-mode columns in cols plus the decode-mode scatterers. Frames
// are independent given their seed stream, so the loop fans out on the sweep
// pool; per-stage times accumulate atomically across workers in child spans
// of sp (Span.Add is one atomic add). All workers share one immutable frame
// front-end plan (scene-static synthesis terms + the fused window+FFT range
// plan); only the frame and profile scratch buffers are pooled. The columns
// live in cols, which the caller owns releasing. The done mask marks frames
// that actually ran (after cancellation, no worker starts another frame).
func (p *Pipeline) synthesizeFrames(ctx context.Context, sc *scene.Scene, truth []geom.Vec3, vel geom.Vec3, seed int64, cols *radar.ColumnStore, sp *obs.Span) ([]frameData, []bool, error) {
	synthSp := sp.StartChild(SpanSynthesize)
	rangeSp := sp.StartChild(SpanRangeFFT)
	cloudSp := sp.StartChild(SpanPointCloud)
	fe := p.Radar.FrontEnd
	f := p.Radar.CenterFrequency
	plan := p.resources().SynthPlan(p.Radar)
	inj := p.Fault
	return sweep.RunCtx(ctx, len(truth), p.Workers, func(ctx context.Context, i int) (frameData, error) {
		ff := inj.Frame(i)
		if ff.Delay > 0 {
			t := time.NewTimer(ff.Delay)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return frameData{}, context.Cause(ctx)
			}
		}
		if ff.Panic {
			panic(fmt.Errorf("fault: injected worker panic at frame %d: %w", i, roserr.ErrFrameCorrupt))
		}
		if ff.Drop {
			return frameData{dropped: true, dropKind: dropKindDrop}, nil
		}
		rng := sweep.NewRand(seed, i)
		g := dsp.AcquireGauss(noiseSeed(seed, i))
		defer dsp.ReleaseGauss(g)
		t0 := time.Now()
		detScat := sc.Scatterers(truth[i], vel, scene.ModeDetect, fe, f, rng)
		fd := frameData{
			decScat:     sc.Scatterers(truth[i], vel, scene.ModeDecode, fe, f, rng),
			replay:      p.Radar.ADCBits > 0 || ff.Corrupt || ff.Burst,
			synthesized: 1,
		}
		detFrame := plan.Synthesize(detScat, g)
		fd.decNoise = g.Pos()
		if ff.Corrupt || ff.Burst {
			// The decode frame's share of the scrub count comes from its
			// fault draws alone; replayDecode synthesizes the frame if the
			// pose survives.
			ff.Apply(detFrame.Data, p.Radar.NumRx, p.Radar.Samples)
			fd.scrubbed = radar.ScrubFrame(detFrame) + ff.NonFinite(p.Radar.NumRx, p.Radar.Samples)
			if float64(fd.scrubbed) > maxScrubFraction*float64(2*len(detFrame.Data)) {
				radar.ReleaseFrame(detFrame)
				synthSp.Add(time.Since(t0))
				fd.dropped, fd.dropKind, fd.decScat = true, dropKindCorrupt, nil
				return fd, nil
			}
		}
		t1 := time.Now()
		det := plan.RangeProfile(detFrame)
		radar.ReleaseFrame(detFrame)
		fd.ok, fd.transformed = true, 1
		t2 := time.Now()
		// The scan keeps det's spotlight columns; the point cloud goes to
		// world coordinates: radar at y > 0 looks toward -y, so a detection
		// at (range, az) sits at radar + range*(sin az, -cos az).
		fd.cols = cols.Frame(i)
		for _, d := range plan.PointCloudScan(det, fd.cols) {
			world := truth[i].XY().Add(geom.Vec2{X: d.Range * math.Sin(d.Azimuth), Y: -d.Range * math.Cos(d.Azimuth)})
			fd.points = append(fd.points, cluster.Point{Pos: world, Weight: d.Power})
		}
		radar.ReleaseProfile(det)
		synthSp.Add(t1.Sub(t0))
		rangeSp.Add(t2.Sub(t1))
		cloudSp.Add(time.Since(t2))
		return fd, nil
	})
}

// resources resolves the run's resource handle: Engine, or the default.
func (p *Pipeline) resources() *engine.Engine {
	if p.Engine != nil {
		return p.Engine
	}
	return engine.Default()
}

// spotView is the read geometry of classifyObject (tag false: within 60
// degrees, past the leakage region) and sampleTagFrame (tag true: within
// DecodeAzimuthCapDeg), shared with replayDecode: target's range bin,
// azimuth and range from the radar at pose, and whether it is in view.
func (p *Pipeline) spotView(pose geom.Vec3, target geom.Vec2, tag bool) (bin int, az, r float64, ok bool) {
	capDeg, minRange := 60.0, 4*p.Radar.RangeBinSize()
	if tag {
		capDeg, minRange = cmp.Or(p.DecodeAzimuthCapDeg, 60), 0
	}
	rel := target.Sub(pose.XY())
	r = rel.Norm()
	az = math.Atan2(rel.X, -rel.Y)
	if r <= minRange || r >= p.Radar.MaxRange() || math.Abs(az) > geom.Rad(capDeg) {
		return 0, 0, 0, false
	}
	return p.Radar.BinForRange(r), az, r, true
}

// classifyObject spotlights one cluster in both polarization modes across
// the pass and fills in the two classification features of Fig 13. Its only
// randomness is dec's keyed bin noise and it touches only read-only state,
// so objects classify concurrently on the sweep pool. Frames without usable
// profiles (dropped or never synthesized) are skipped.
func (p *Pipeline) classifyObject(st cluster.Stats, frames []frameData, dec *decodeReader, truth []geom.Vec3, extThresh float64) ObjectReport {
	report := ObjectReport{Centroid: st.Centroid, Extent: st.Extent, Points: st.Count}
	// Subtract the expected beamformed noise power so weak decode-mode
	// readings do not bias the loss feature low.
	noise := p.spotNoise()
	var lossSamples, detSamples []float64
	for i := range truth {
		if !frames[i].ok {
			continue
		}
		bin, az, _, ok := p.spotView(truth[i], st.Centroid, false)
		if !ok {
			continue
		}
		col := frames[i].cols.At(bin)
		if col == nil {
			// Pass 1 dropped the column: its steering bound is below
			// columnFloor, so it cannot clear the detection gate.
			continue
		}
		det := p.Radar.SteerPower(col, az) - noise
		if det > detGate*noise {
			detSamples = append(detSamples, em.DBm(det))
			if d := dec.power(&frames[i], i, bin, az) - noise; d > 2*noise {
				lossSamples = append(lossSamples, em.DB(det/d))
			}
		}
	}
	if len(lossSamples) > 0 {
		report.RSSLossDB = dsp.Median(lossSamples)
	} else {
		report.RSSLossDB = math.Inf(1)
	}
	if len(detSamples) > 0 {
		report.MedianRSSDetectDBm = dsp.Median(detSamples)
	} else {
		report.MedianRSSDetectDBm = math.Inf(-1)
	}
	report.IsTag = report.RSSLossDB < tagMaxRSSLossDB && report.Extent < extThresh
	return report
}

// sampleTagFrame is pass 2 for frame i: the tag's decode-mode spotlight RSS
// using the estimated geometry (the tag axis is parallel to the road / x
// axis), path-loss compensated per Eq 1 (d^4) using the tracked range so the
// sample is proportional to RCS.
func (p *Pipeline) sampleTagFrame(dec *decodeReader, fd *frameData, i int, est geom.Vec3, tagPos geom.Vec2) tagSample {
	bin, az, r, ok := p.spotView(est, tagPos, true)
	if !ok {
		return tagSample{}
	}
	rss := dec.power(fd, i, bin, az)
	rss *= r * r * r * r
	return tagSample{u: (est.X - tagPos.X) / r, rss: rss, r: r, ok: true}
}

// replayDecode runs once after clustering: for each usable frame marked
// replay, it collects every bin spotView lets either reader ask of any
// candidate, re-synthesizes the decode frame from decNoise (quantizer and
// sample faults included, the detection frame's fault draws skipped), range
// transforms it, keeps those columns in store and releases the frame and
// profile at once. Frames fan out on the sweep pool, timed into spotSp. It
// returns the number of frames synthesized and transformed.
func (p *Pipeline) replayDecode(ctx context.Context, frames []frameData, cands []cluster.Stats, truth, est []geom.Vec3, store *radar.ColumnStore, spotSp *obs.Span) (int, error) {
	plan := p.resources().SynthPlan(p.Radar)
	var replayed atomic.Int64
	_, _, err := sweep.RunCtx(ctx, len(frames), p.Workers, func(_ context.Context, i int) (bool, error) {
		fd := &frames[i]
		if !fd.ok || !fd.replay {
			return false, nil
		}
		t0 := time.Now()
		bins := make([]int, 0, 16)
		for _, st := range cands {
			if bin, _, _, ok := p.spotView(truth[i], st.Centroid, false); ok {
				bins = append(bins, bin)
			}
			if bin, _, _, ok := p.spotView(est[i], st.Centroid, true); ok {
				bins = append(bins, bin)
			}
		}
		scat := fd.decScat
		fd.dec, fd.decScat = store.Frame(i), nil
		if len(bins) == 0 {
			return false, nil
		}
		g := dsp.AcquireGauss(fd.decNoise)
		f := plan.Synthesize(scat, g)
		dsp.ReleaseGauss(g)
		if ff := p.Fault.Frame(i); ff.Corrupt || ff.Burst {
			ff.Apply(nil, p.Radar.NumRx, p.Radar.Samples)
			ff.Apply(f.Data, p.Radar.NumRx, p.Radar.Samples)
			radar.ScrubFrame(f)
		}
		rp := plan.RangeProfile(f)
		radar.ReleaseFrame(f)
		fd.dec.KeepBins(rp, bins)
		radar.ReleaseProfile(rp)
		spotSp.Add(time.Since(t0))
		replayed.Add(1)
		return true, nil
	})
	return int(replayed.Load()), err
}

// RunContext drives the full pipeline: truth are the radar's true per-frame
// positions (used to synthesize physics, and for the short-horizon
// operations of clustering and spotlighting, which integrate over windows
// where dead-reckoning drift is negligible), est the vehicle's self-tracked
// estimates (used for the full-pass RCS sampling that decoding depends on —
// the error injection point of Fig 16d), vel the vehicle velocity, and seed
// the root of the per-frame noise streams (equal seeds reproduce the run
// exactly, at any worker count).
//
// Cancellation is cooperative with frame granularity: when ctx is cancelled
// or its deadline expires, RunContext stops at the next frame or stage
// boundary and returns a partial Result (Partial set, FramesCompleted
// counted) plus an error matching roserr.ErrReadCancelled and the context
// cause. Frames completed before the cut are exactly the frames a full run
// would have produced.
func (p *Pipeline) RunContext(ctx context.Context, sc *scene.Scene, truth, est []geom.Vec3, vel geom.Vec3, seed int64) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sp := obs.StartSpan(SpanRun)
	if len(truth) == 0 || len(truth) != len(est) {
		sp.Release()
		return nil, fmt.Errorf("detect: %w: %d truth vs %d estimated positions", roserr.ErrConfig, len(truth), len(est))
	}
	if err := p.Validate(); err != nil {
		sp.Release()
		return nil, err
	}
	if err := context.Cause(ctx); err != nil {
		sp.Release()
		return nil, fmt.Errorf("detect: read cancelled before the first frame: %w: %w", roserr.ErrReadCancelled, err)
	}
	extThresh := cmp.Or(p.TagMaxExtent, 0.18)

	// Pass 1: synthesize the frames, keep the detection-mode columns the
	// spotlight can read and the decode-mode scatterers, and build the
	// merged world-frame point cloud from detection mode. The columns live
	// in pooled storage the run hands back when it is done with them
	// (nothing in Result references them).
	n := len(truth)
	sp.SetAttr("fft_size", p.Radar.Samples)
	sp.SetAttr("workers", resolveWorkers(p.Workers, n))
	cols := radar.NewColumnStore(n, p.Radar.NumRx, p.Radar.Samples, p.columnFloor())
	defer cols.Release()
	frames, done, ferr := p.synthesizeFrames(ctx, sc, truth, vel, seed, cols, sp)
	// addWork counts frames synthesized and range-transformed, on the span
	// (frames, fft_calls) and the registry.
	synthesized, transformed := 0, 0
	addWork := func(synth, trans int) {
		synthesized += synth
		transformed += trans
		sp.SetAttr("frames", synthesized)
		sp.SetAttr("fft_calls", int64(transformed)*int64(p.Radar.NumRx))
		mFrames.Add(int64(synth))
		mFFTs.Add(int64(trans) * int64(p.Radar.NumRx))
	}
	mRuns.Inc()

	// A frame whose worker failed (recovered panic, injected or real) is a
	// lost frame, not a lost read: mark it dropped and let the degradation
	// budget decide.
	cancelled := errors.Is(ferr, roserr.ErrReadCancelled)
	if ferr != nil {
		pointErrs := sweep.PointErrors(ferr)
		if len(pointErrs) == 0 && !cancelled {
			sp.Release()
			return nil, ferr
		}
		for _, pe := range pointErrs {
			if pe.Index < 0 || pe.Index >= len(frames) {
				continue
			}
			fd := &frames[pe.Index]
			if fd.ok || fd.dropped {
				continue
			}
			if errors.Is(pe.Err, roserr.ErrReadCancelled) || errors.Is(pe.Err, context.Canceled) ||
				errors.Is(pe.Err, context.DeadlineExceeded) {
				// The frame never produced data because the read was cut
				// short mid-frame, not because it was lost.
				done[pe.Index] = false
				continue
			}
			fd.dropped = true
			fd.dropKind = dropKindWorker
		}
	}
	completed, dropped, scrubbed, synth, trans := 0, 0, 0, 0, 0
	dropKinds := map[string]int64{}
	for i := range frames {
		if frames[i].ok {
			completed++
		} else if done[i] && frames[i].dropped {
			dropped++
			dropKinds[frames[i].dropKind]++
		}
		scrubbed += frames[i].scrubbed
		synth += frames[i].synthesized
		trans += frames[i].transformed
	}
	addWork(synth, trans)
	if dropped > 0 {
		mFramesDropped.Add(int64(dropped))
		for kind, n := range dropKinds {
			mFramesDroppedByKind.With(kind).Add(n)
		}
	}
	if scrubbed > 0 {
		mSamplesScrubbed.Add(int64(scrubbed))
	}

	// partial finalizes a run cut short at a frame or stage boundary.
	partial := func(res *Result) *Result {
		if res == nil {
			res = &Result{TagIndex: -1}
		}
		res.Partial = true
		res.FramesCompleted = completed
		res.FramesDropped = dropped
		res.SamplesScrubbed = scrubbed
		sp.End()
		res.Span = sp
		return res
	}

	if cancelled {
		obs.Logger().Warn("detect: run cancelled during frame synthesis",
			"completed", completed, "of", n, "seed", seed)
		return partial(nil), fmt.Errorf("detect: read cancelled after %d/%d frames: %w", completed, n, ferr)
	}
	if float64(dropped) > maxFrameLoss*float64(n) {
		obs.Logger().Error("detect: frame loss beyond budget",
			"dropped", dropped, "of", n, "budget", maxFrameLoss, "seed", seed)
		return partial(nil), fmt.Errorf("detect: %d/%d frames lost (budget %.0f%%): %w",
			dropped, n, 100*maxFrameLoss, roserr.ErrFrameCorrupt)
	}
	if dropped > 0 || scrubbed > 0 {
		obs.Logger().Warn("detect: degraded run continues",
			"dropped", dropped, "of", n, "scrubbed_samples", scrubbed, "seed", seed)
	}

	total := 0
	for _, fd := range frames {
		total += len(fd.points)
	}
	merged := make([]cluster.Point, 0, total)
	for _, fd := range frames {
		merged = append(merged, fd.points...)
	}

	clusterSp := sp.StartChild(SpanCluster)
	labels := cluster.DBSCAN(merged, clusterEps, clusterMinPts)
	stats := cluster.Summarize(merged, labels, p.Radar.RangeResolution())
	clusterSp.End()
	clusterSp.SetAttr("points", len(merged))

	res := &Result{TagIndex: -1, MergedPoints: merged,
		FramesCompleted: completed, FramesDropped: dropped, SamplesScrubbed: scrubbed}

	// Stage boundary: clustering done, spotlighting next.
	if err := context.Cause(ctx); err != nil {
		return partial(res), fmt.Errorf("detect: read cancelled after clustering: %w: %w", roserr.ErrReadCancelled, err)
	}

	// Spotlight pass: replay the time-domain decode frames, then classify
	// every cluster that survived the density filter. Objects are
	// independent and draw no randomness, so they fan out on the sweep
	// pool; sweep.RunCtx returns reports in candidate order, keeping the
	// output byte-identical at any worker count. The span accumulates worker-summed
	// self time, like the per-frame stages.
	spotSp := sp.StartChild(SpanSpotlight)
	dec := p.newDecodeReader(seed)
	endSpot := func() {
		spotSp.SetAttr("decode_bins", dec.bins.Load())
		spotSp.End()
	}
	// spotFailed ends a run the named spotlight stage cut short with err.
	spotFailed := func(stage string, err error) (*Result, error) {
		endSpot()
		if errors.Is(err, roserr.ErrReadCancelled) {
			return partial(res), fmt.Errorf("detect: read cancelled during %s: %w", stage, err)
		}
		obs.Logger().Error("detect: "+stage+" pass failed", "seed", seed, "err", err)
		sp.Release()
		return nil, err
	}
	var cands []cluster.Stats
	for _, st := range stats {
		if st.Count >= minClusterFrames {
			cands = append(cands, st)
		}
	}
	spotSp.SetAttr("objects", len(cands))
	spotSp.SetAttr("workers", resolveWorkers(p.Workers, max(len(cands), n)))
	if len(cands) > 0 {
		decCols := radar.NewColumnStore(n, p.Radar.NumRx, p.Radar.Samples, 0)
		defer decCols.Release()
		replayed, err := p.replayDecode(ctx, frames, cands, truth, est, decCols, spotSp)
		addWork(replayed, replayed)
		if err != nil {
			return spotFailed("decode replay", err)
		}
		reports, _, err := sweep.RunCtx(ctx, len(cands), p.Workers, func(_ context.Context, ci int) (ObjectReport, error) {
			t0 := time.Now()
			report := p.classifyObject(cands[ci], frames, dec, truth, extThresh)
			spotSp.Add(time.Since(t0))
			return report, nil
		})
		if err != nil {
			return spotFailed("spotlighting", err)
		}
		res.Objects = reports
	}

	if p.ForceTagNear != nil {
		best, bestDist := -1, 0.5
		for i, o := range res.Objects {
			if d := o.Centroid.Dist(*p.ForceTagNear); d < bestDist {
				best, bestDist = i, d
			}
		}
		if best >= 0 {
			res.Objects[best].IsTag = true
		}
	}

	// Pick the best tag candidate (lowest RSS loss among classified tags).
	for i, o := range res.Objects {
		if !o.IsTag {
			continue
		}
		if res.TagIndex < 0 || o.RSSLossDB < res.Objects[res.TagIndex].RSSLossDB {
			res.TagIndex = i
		}
	}

	if res.TagIndex < 0 {
		obs.Logger().Info("detect: no tag classified",
			"objects", len(res.Objects), "seed", seed)
		endSpot()
		sp.End()
		res.Span = sp
		return res, nil
	}
	mTagsFound.Inc()

	// Pass 2: sample the tag's decode-mode RSS over u using the estimated
	// geometry. Frames are independent here too, so the sampling fans out
	// on the pool and the samples are appended in frame order. Frames
	// without usable profiles contribute no samples — the decoder reads
	// from the remaining aggregate at reduced confidence.
	tagPos := res.Objects[res.TagIndex].Centroid
	samples, _, err := sweep.RunCtx(ctx, n, p.Workers, func(_ context.Context, i int) (tagSample, error) {
		if !frames[i].ok {
			return tagSample{}, nil
		}
		t0 := time.Now()
		s := p.sampleTagFrame(dec, &frames[i], i, est[i], tagPos)
		spotSp.Add(time.Since(t0))
		return s, nil
	})
	if err != nil {
		return spotFailed("RCS sampling", err)
	}
	for _, s := range samples {
		if !s.ok {
			continue
		}
		res.TagU = append(res.TagU, s.u)
		res.TagRSS = append(res.TagRSS, s.rss)
		res.TagRange = append(res.TagRange, s.r)
	}
	endSpot()
	spotSp.SetAttr("samples", len(res.TagU))
	sp.End()
	res.Span = sp
	obs.Logger().Debug("detect: run complete",
		"objects", len(res.Objects), "tag_index", res.TagIndex,
		"samples", len(res.TagU), "wall_ms", float64(sp.Wall().Nanoseconds())/1e6)
	return res, nil
}

// decodeReader serves the decode-mode beamformed power of any frame at the
// bins spotView puts in view: from the columns replayDecode kept when the
// frame's decode frame is time-domain, otherwise in closed form from its
// decode-mode scatterers via BinSpectrum. The bin-domain noise of (frame i,
// bin) comes from its own stream keyed by binNoiseSeed, so every reader of
// one bin — any object, any worker, in any order — sees the same vector.
// bins counts the BinSpectrum evaluations for the spotlight span's
// decode_bins attribute.
type decodeReader struct {
	cfg  *radar.Config
	plan *radar.SynthPlan
	seed int64
	bins atomic.Int64
}

// newDecodeReader returns the run's decode reader over the pipeline's
// synthesis plan.
func (p *Pipeline) newDecodeReader(seed int64) *decodeReader {
	return &decodeReader{cfg: &p.Radar, plan: p.resources().SynthPlan(p.Radar), seed: seed}
}

// power returns the decode-mode beamformed power of frame i (fd) at one
// range bin and azimuth.
func (d *decodeReader) power(fd *frameData, i, bin int, az float64) float64 {
	if fd.replay {
		col := fd.dec.At(bin)
		if col == nil {
			panic(fmt.Sprintf("detect: decode bin %d of frame %d was not replayed", bin, i))
		}
		return d.cfg.SteerPower(col, az)
	}
	var vbuf [16]complex128
	v := vbuf[:]
	if d.cfg.NumRx > len(vbuf) {
		v = make([]complex128, d.cfg.NumRx)
	}
	v = v[:d.cfg.NumRx]
	var g dsp.Gauss
	g.Reseed(binNoiseSeed(d.seed, i, bin))
	d.plan.BinSpectrum(v, fd.decScat, bin, &g)
	d.bins.Add(1)
	return d.cfg.SteerPower(v, az)
}

// binNoiseSeed derives the bin-domain noise stream of decode-mode bin `bin`
// of frame i: a third sub-stream of the frame seed SubSeed(seed, i), salted
// apart from the scene draws (the frame seed itself) and the frame's
// time-domain noise (noiseSeed), then keyed by the bin.
func binNoiseSeed(seed int64, i, bin int) int64 {
	return sweep.SubSeed(sweep.SubSeed(sweep.SubSeed(seed, i), 2), bin)
}

// resolveWorkers mirrors sweep.RunCtx's worker-count resolution for reporting.
func resolveWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}
