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
// object, one for the tag), so on the ideal converter (ADCBits == 0) the
// pipeline never synthesizes a decode-mode frame: it keeps the frame's decode-mode scatterers and evaluates the bins
// it reads in closed form (radar.SynthPlan.BinSpectrum). Quantized configs
// and frames with injected sample corruption or bursts keep the time-domain
// decode frame, because the quantizer and the sample faults act there.
//
// Robustness: RunContext threads a context through every stage with
// cooperative cancellation checks at frame and stage boundaries — a
// cancelled or deadline-expired run returns promptly with a partial Result
// (Partial set, frames completed so far) and an error matching both
// roserr.ErrReadCancelled and the context cause. The optional fault layer
// (Pipeline.Fault) injects deterministic frame drops, sample corruption,
// worker panics and latency; the pipeline degrades gracefully — non-finite
// samples are scrubbed before the range transform, lost frames are excluded
// from the aggregate up to MaxFrameLoss, and beyond that budget the run
// fails with a typed roserr.ErrFrameCorrupt.
package detect

import (
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

// Pipeline-level metrics, accumulated on the Default registry once per run
// (never per frame, so the hot loop pays nothing for them).
var (
	mRuns = obs.Default.Counter("ros_pipeline_runs_total",
		"detection pipeline runs")
	mFrames = obs.Default.Counter("ros_frames_synthesized_total",
		"radar frames synthesized (detection mode per pose, plus decode mode on the time-domain path)")
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

// Pipeline holds the detector configuration.
type Pipeline struct {
	// Radar is the interrogating radar.
	Radar radar.Config
	// ClusterEps is the DBSCAN neighbourhood radius in meters (default
	// 0.25).
	ClusterEps float64
	// ClusterMinPts is the DBSCAN core threshold (default 10; real object
	// clusters accumulate hundreds of points over a pass, so a strict core
	// rule keeps sparse strays from bridging neighbouring objects).
	ClusterMinPts int
	// MinClusterFrames drops clusters seen in too few frames (default 25,
	// the density filter of Sec 6; real objects accumulate hundreds of
	// points over a pass while multipath ghosts appear in a handful).
	MinClusterFrames int
	// TagMaxRSSLossDB is the RSS-loss feature threshold: tags lose less
	// than this when the radar switches polarization (default 14.2 dB,
	// between the tag's ~13 and clutter's 16-19 dB, Fig 13a; weak clutter
	// reads slightly below its true rejection near the noise floor, so the
	// threshold leans toward the tag's side).
	TagMaxRSSLossDB float64
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
	// Detect options for per-frame point clouds.
	Detect radar.DetectOptions
	// Fault injects deterministic faults into the frame loop (nil = off;
	// see internal/fault). With Fault nil the pipeline's output is
	// byte-identical to a build that never loads the fault layer.
	Fault *fault.Injector
	// MaxFrameLoss is the tolerated fraction of frame poses lost to drops,
	// corruption, or worker failure before the run fails with
	// roserr.ErrFrameCorrupt (default 0.5). The decoder reads from an
	// aggregate of azimuth samples, so partial frame loss degrades SNR
	// rather than correctness.
	MaxFrameLoss float64
	// Engine supplies the resource handle the run draws its synthesis plan
	// (and with it steering tables, transform plans, and frame pools) from;
	// nil uses engine.Default(). Results are byte-identical either way.
	Engine *engine.Engine
}

// NewPipeline returns a pipeline with the paper's defaults around the given
// radar.
func NewPipeline(cfg radar.Config) *Pipeline {
	return &Pipeline{
		Radar:               cfg,
		ClusterEps:          0.25,
		ClusterMinPts:       10,
		MinClusterFrames:    25,
		TagMaxRSSLossDB:     14.2,
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
	case p.ClusterEps < 0 || math.IsNaN(p.ClusterEps):
		return fmt.Errorf("detect: %w: negative cluster eps %g", roserr.ErrConfig, p.ClusterEps)
	case p.ClusterMinPts < 0:
		return fmt.Errorf("detect: %w: negative cluster min points %d", roserr.ErrConfig, p.ClusterMinPts)
	case p.MinClusterFrames < 0:
		return fmt.Errorf("detect: %w: negative min cluster frames %d", roserr.ErrConfig, p.MinClusterFrames)
	case p.TagMaxRSSLossDB < 0 || math.IsNaN(p.TagMaxRSSLossDB):
		return fmt.Errorf("detect: %w: negative RSS-loss threshold %g", roserr.ErrConfig, p.TagMaxRSSLossDB)
	case p.TagMaxExtent < 0 || math.IsNaN(p.TagMaxExtent):
		return fmt.Errorf("detect: %w: negative extent threshold %g", roserr.ErrConfig, p.TagMaxExtent)
	case p.DecodeAzimuthCapDeg < 0 || p.DecodeAzimuthCapDeg > 90:
		return fmt.Errorf("detect: %w: decode azimuth cap %g outside [0, 90]", roserr.ErrConfig, p.DecodeAzimuthCapDeg)
	case p.Workers < 0:
		return fmt.Errorf("detect: %w: negative worker count %d", roserr.ErrConfig, p.Workers)
	case p.MaxFrameLoss < 0 || p.MaxFrameLoss > 1 || math.IsNaN(p.MaxFrameLoss):
		return fmt.Errorf("detect: %w: max frame loss %g outside [0, 1]", roserr.ErrConfig, p.MaxFrameLoss)
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
	// det is the detection-mode range profile. Decode mode is held one of
	// two ways: dec, the time-domain range profile (quantized configs and
	// sample-faulted frames), or decScat, the decode-mode scatterers whose
	// bins decodeReader evaluates directly. Exactly one is set on an ok
	// frame.
	det, dec radar.RangeProfile
	decScat  []radar.Scatterer
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

// noiseSeed derives the frame's thermal-noise sub-stream seed: the scene
// draws consume the frame stream SubSeed(seed, i) through their own
// rand.Rand, while the batched Gaussian noise runs on an independent
// SplitMix64 stream remixed from it — both pure functions of (seed, i), so
// the run stays byte-identical at any worker count.
func noiseSeed(seed int64, i int) int64 {
	return sweep.SubSeed(sweep.SubSeed(seed, i), 1)
}

// synthesizeFrames is pass 1 of Run: synthesize the detection-mode frame per
// pose (and the decode-mode frame where the time-domain path is needed),
// keep the range profiles or decode-mode scatterers, and extract the
// detection-mode point cloud in world coordinates. Frames are independent
// given their seed stream, so the loop fans out on the sweep pool;
// per-stage times accumulate atomically across workers in child spans of sp
// (Span.Add is one atomic add). All workers share one immutable frame
// front-end plan (scene-static synthesis terms + the fused window+FFT range
// plan); only the frame and profile scratch buffers are pooled. The returned
// profiles live in pooled buffers — the caller owns releasing them. The done
// mask marks frames that actually ran (cancellation stops dispatch between
// frames).
func (p *Pipeline) synthesizeFrames(ctx context.Context, sc *scene.Scene, truth []geom.Vec3, vel geom.Vec3, seed int64, sp *obs.Span) ([]frameData, []bool, error) {
	synthSp := sp.StartChild(SpanSynthesize)
	rangeSp := sp.StartChild(SpanRangeFFT)
	cloudSp := sp.StartChild(SpanPointCloud)
	fe := p.Radar.FrontEnd
	f := p.Radar.CenterFrequency
	plan := p.resources().Session.SynthPlanFor(p.Radar)
	inj := p.Fault
	samples := p.Radar.Samples
	numRx := p.Radar.NumRx
	return sweep.RunCtx(ctx, len(truth), p.Workers, func(ctx context.Context, i int) (frameData, error) {
		if inj != nil {
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
			if ff.Corrupt || ff.Burst {
				return p.synthesizeFaultyFrame(sc, truth[i], vel, seed, i, ff, plan, fe, f,
					numRx, samples, synthSp, rangeSp, cloudSp)
			}
		}
		return p.synthesizeCleanFrame(sc, truth[i], vel, seed, i, plan, fe, f, synthSp, rangeSp, cloudSp), nil
	})
}

// synthesizeCleanFrame is the fault-free frame path — the hot loop of every
// production read. On the ideal converter it synthesizes and transforms the
// detection-mode frame only and keeps the decode-mode scatterers for
// decodeReader; with a quantizer both modes take the time-domain path. The
// detection-mode frame draws its noise first from the frame's stream either
// way, so its realization does not depend on the decode path.
func (p *Pipeline) synthesizeCleanFrame(sc *scene.Scene, pose geom.Vec3, vel geom.Vec3, seed int64, i int, plan *radar.SynthPlan, fe em.RadarFrontEnd, f float64, synthSp, rangeSp, cloudSp *obs.Span) frameData {
	rng := sweep.NewRand(seed, i)
	g := dsp.AcquireGauss(noiseSeed(seed, i))
	t0 := time.Now()
	detScat := sc.Scatterers(pose, vel, scene.ModeDetect, fe, f, rng)
	decScat := sc.Scatterers(pose, vel, scene.ModeDecode, fe, f, rng)
	detFrame := plan.Synthesize(detScat, g)
	timeDomain := p.Radar.ADCBits > 0
	var decFrame radar.Frame
	if timeDomain {
		decFrame = plan.Synthesize(decScat, g)
	}
	dsp.ReleaseGauss(g)
	t1 := time.Now()
	fd := frameData{det: plan.RangeProfile(detFrame), synthesized: 1, transformed: 1, ok: true}
	radar.ReleaseFrame(detFrame)
	if timeDomain {
		fd.dec = plan.RangeProfile(decFrame)
		fd.synthesized, fd.transformed = 2, 2
		radar.ReleaseFrame(decFrame)
	} else {
		fd.decScat = decScat
	}
	t2 := time.Now()

	p.extractPoints(&fd, pose, plan)
	t3 := time.Now()
	synthSp.Add(t1.Sub(t0))
	rangeSp.Add(t2.Sub(t1))
	cloudSp.Add(t3.Sub(t2))
	return fd
}

// synthesizeFaultyFrame is the corrupted-frame path: synthesize both modes,
// apply the injected sample faults, scrub non-finite samples before the
// range transform, and drop the frame as corrupt when the scrub count
// exceeds the repair threshold.
func (p *Pipeline) synthesizeFaultyFrame(sc *scene.Scene, pose geom.Vec3, vel geom.Vec3, seed int64, i int, ff fault.FrameFaults, plan *radar.SynthPlan, fe em.RadarFrontEnd, f float64, numRx, samples int, synthSp, rangeSp, cloudSp *obs.Span) (frameData, error) {
	rng := sweep.NewRand(seed, i)
	g := dsp.AcquireGauss(noiseSeed(seed, i))
	t0 := time.Now()
	detScat := sc.Scatterers(pose, vel, scene.ModeDetect, fe, f, rng)
	decScat := sc.Scatterers(pose, vel, scene.ModeDecode, fe, f, rng)
	detFrame := plan.Synthesize(detScat, g)
	decFrame := plan.Synthesize(decScat, g)
	dsp.ReleaseGauss(g)
	ff.Apply(detFrame.Data, numRx, samples)
	ff.Apply(decFrame.Data, numRx, samples)
	scrubbed := radar.ScrubFrame(detFrame) + radar.ScrubFrame(decFrame)
	t1 := time.Now()
	synthSp.Add(t1.Sub(t0))
	if float64(scrubbed) > maxScrubFraction*float64(2*len(detFrame.Data)) {
		radar.ReleaseFrame(detFrame)
		radar.ReleaseFrame(decFrame)
		return frameData{dropped: true, dropKind: dropKindCorrupt, scrubbed: scrubbed, synthesized: 2}, nil
	}
	fd := frameData{
		det:         plan.RangeProfile(detFrame),
		dec:         plan.RangeProfile(decFrame),
		synthesized: 2,
		transformed: 2,
		ok:          true,
		scrubbed:    scrubbed,
	}
	radar.ReleaseFrame(detFrame)
	radar.ReleaseFrame(decFrame)
	t2 := time.Now()
	p.extractPoints(&fd, pose, plan)
	rangeSp.Add(t2.Sub(t1))
	cloudSp.Add(time.Since(t2))
	return fd, nil
}

// resources resolves the run's resource handle: Engine, or the default.
func (p *Pipeline) resources() *engine.Engine {
	if p.Engine != nil {
		return p.Engine
	}
	return engine.Default()
}

// extractPoints converts the frame's detection-mode point cloud into world
// coordinates via the plan's scan path.
func (p *Pipeline) extractPoints(fd *frameData, pose geom.Vec3, plan *radar.SynthPlan) {
	for _, d := range plan.PointCloudScan(fd.det, p.Detect) {
		// Radar at y > 0 looks toward -y; a detection at (range, az)
		// sits at radar + range*(sin az, -cos az).
		world := pose.XY().Add(geom.Vec2{
			X: d.Range * math.Sin(d.Azimuth),
			Y: -d.Range * math.Cos(d.Azimuth),
		})
		fd.points = append(fd.points, cluster.Point{Pos: world, Weight: d.Power})
	}
}

// classifyObject spotlights one cluster in both polarization modes across
// the pass and fills in the two classification features of Fig 13. Its only
// randomness is dec's keyed bin noise and it touches only read-only state,
// so objects classify concurrently on the sweep pool. Frames without usable
// profiles (dropped or never synthesized) are skipped.
func (p *Pipeline) classifyObject(st cluster.Stats, frames []frameData, dec *decodeReader, truth []geom.Vec3, lossThresh, extThresh float64) ObjectReport {
	report := ObjectReport{Centroid: st.Centroid, Extent: st.Extent, Points: st.Count}
	// Subtract the expected beamformed noise power so weak decode-mode
	// readings do not bias the loss feature low.
	noise := 1.5 * p.Radar.NoisePerBin() / float64(p.Radar.NumRx)
	var lossSamples, detSamples []float64
	for i := range truth {
		if !frames[i].ok {
			continue
		}
		rel := st.Centroid.Sub(truth[i].XY())
		r := rel.Norm()
		az := math.Atan2(rel.X, -rel.Y)
		if math.Abs(az) > geom.Rad(60) || r >= p.Radar.MaxRange() || r <= 4*p.Radar.RangeBinSize() {
			continue
		}
		bin := p.Radar.BinForRange(r)
		det := p.Radar.BeamPower(frames[i].det, bin, az) - noise
		if det > 4*noise {
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
	report.IsTag = report.RSSLossDB < lossThresh && report.Extent < extThresh
	return report
}

// sampleTagFrame is pass 2 for frame i: the tag's decode-mode spotlight RSS
// using the estimated geometry (the tag axis is parallel to the road / x
// axis), path-loss compensated per Eq 1 (d^4) using the tracked range so the
// sample is proportional to RCS.
func (p *Pipeline) sampleTagFrame(dec *decodeReader, fd *frameData, i int, est geom.Vec3, tagPos geom.Vec2, azCap float64) tagSample {
	rel := est.XY().Sub(tagPos)
	r := rel.Norm()
	if r == 0 {
		return tagSample{}
	}
	azRel := tagPos.Sub(est.XY())
	az := math.Atan2(azRel.X, -azRel.Y)
	if math.Abs(az) > geom.Rad(azCap) || r >= p.Radar.MaxRange() {
		return tagSample{}
	}
	rss := dec.power(fd, i, p.Radar.BinForRange(r), az)
	rss *= r * r * r * r
	return tagSample{u: rel.X / r, rss: rss, r: r, ok: true}
}

// Run drives the full pipeline without cancellation; see RunContext.
func (p *Pipeline) Run(sc *scene.Scene, truth, est []geom.Vec3, vel geom.Vec3, seed int64) (*Result, error) {
	return p.RunContext(context.Background(), sc, truth, est, vel, seed)
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
	eps := p.ClusterEps
	if eps <= 0 {
		eps = 0.25
	}
	minPts := p.ClusterMinPts
	if minPts <= 0 {
		minPts = 10
	}
	minFrames := p.MinClusterFrames
	if minFrames <= 0 {
		minFrames = 25
	}
	lossThresh := p.TagMaxRSSLossDB
	if lossThresh == 0 {
		lossThresh = 14.2
	}
	extThresh := p.TagMaxExtent
	if extThresh == 0 {
		extThresh = 0.18
	}
	maxLoss := p.MaxFrameLoss
	if maxLoss == 0 {
		maxLoss = 0.5
	}

	// Pass 1: synthesize the frames, keep range profiles (or decode-mode
	// scatterers), and build the merged world-frame point cloud from
	// detection mode.
	n := len(truth)
	sp.SetAttr("fft_size", p.Radar.Samples)
	sp.SetAttr("workers", resolveWorkers(p.Workers, n))
	frames, done, ferr := p.synthesizeFrames(ctx, sc, truth, vel, seed, sp)
	synthesized, transformed := 0, 0
	for _, fd := range frames {
		synthesized += fd.synthesized
		transformed += fd.transformed
	}
	ffts := int64(transformed) * int64(p.Radar.NumRx)
	sp.SetAttr("frames", synthesized)
	sp.SetAttr("fft_calls", ffts)
	mRuns.Inc()
	mFrames.Add(int64(synthesized))
	mFFTs.Add(ffts)
	// The profiles live in pooled buffers; hand them back once the run is
	// done with them (nothing in Result references them). Dropped or
	// never-run frames hold zero-value profiles, which release as no-ops.
	defer func() {
		for _, fd := range frames {
			radar.ReleaseProfile(fd.det)
			radar.ReleaseProfile(fd.dec)
		}
	}()

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
	completed, dropped, scrubbed := 0, 0, 0
	dropKinds := map[string]int64{}
	for i := range frames {
		if frames[i].ok {
			completed++
		} else if done[i] && frames[i].dropped {
			dropped++
			dropKinds[frames[i].dropKind]++
		}
		scrubbed += frames[i].scrubbed
	}
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
	if float64(dropped) > maxLoss*float64(n) {
		obs.Logger().Error("detect: frame loss beyond budget",
			"dropped", dropped, "of", n, "budget", maxLoss, "seed", seed)
		return partial(nil), fmt.Errorf("detect: %d/%d frames lost (budget %.0f%%): %w",
			dropped, n, 100*maxLoss, roserr.ErrFrameCorrupt)
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
	labels := cluster.DBSCAN(merged, eps, minPts)
	stats := cluster.Summarize(merged, labels, p.Radar.RangeResolution())
	clusterSp.End()
	clusterSp.SetAttr("points", len(merged))

	res := &Result{TagIndex: -1, MergedPoints: merged,
		FramesCompleted: completed, FramesDropped: dropped, SamplesScrubbed: scrubbed}

	// Stage boundary: clustering done, spotlighting next.
	if err := context.Cause(ctx); err != nil {
		return partial(res), fmt.Errorf("detect: read cancelled after clustering: %w: %w", roserr.ErrReadCancelled, err)
	}

	// Spotlight pass: classify every cluster that survived the density
	// filter. Objects are independent and draw no randomness, so they fan
	// out on the sweep pool; sweep.Run returns reports in candidate order,
	// keeping the output byte-identical at any worker count. The span
	// accumulates worker-summed self time, like the per-frame stages.
	spotSp := sp.StartChild(SpanSpotlight)
	dec := p.newDecodeReader(seed)
	endSpot := func() {
		spotSp.SetAttr("decode_bins", dec.bins.Load())
		spotSp.End()
	}
	var cands []cluster.Stats
	for _, st := range stats {
		if st.Count >= minFrames {
			cands = append(cands, st)
		}
	}
	spotSp.SetAttr("objects", len(cands))
	spotSp.SetAttr("workers", resolveWorkers(p.Workers, max(len(cands), n)))
	if len(cands) > 0 {
		reports, _, err := sweep.RunCtx(ctx, len(cands), p.Workers, func(_ context.Context, ci int) (ObjectReport, error) {
			t0 := time.Now()
			report := p.classifyObject(cands[ci], frames, dec, truth, lossThresh, extThresh)
			spotSp.Add(time.Since(t0))
			return report, nil
		})
		if err != nil {
			endSpot()
			if errors.Is(err, roserr.ErrReadCancelled) {
				return partial(res), fmt.Errorf("detect: read cancelled during spotlighting: %w", err)
			}
			obs.Logger().Error("detect: spotlight pass failed", "objects", len(cands), "seed", seed, "err", err)
			sp.Release()
			return nil, err
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
	azCap := p.DecodeAzimuthCapDeg
	if azCap <= 0 {
		azCap = 60
	}
	tagPos := res.Objects[res.TagIndex].Centroid
	samples, _, err := sweep.RunCtx(ctx, n, p.Workers, func(_ context.Context, i int) (tagSample, error) {
		if !frames[i].ok {
			return tagSample{}, nil
		}
		t0 := time.Now()
		s := p.sampleTagFrame(dec, &frames[i], i, est[i], tagPos, azCap)
		spotSp.Add(time.Since(t0))
		return s, nil
	})
	if err != nil {
		endSpot()
		if errors.Is(err, roserr.ErrReadCancelled) {
			return partial(res), fmt.Errorf("detect: read cancelled during RCS sampling: %w", err)
		}
		obs.Logger().Error("detect: decode sampling pass failed", "frames", n, "seed", seed, "err", err)
		sp.Release()
		return nil, err
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

// decodeReader serves the decode-mode beamformed power of any frame at any
// bin: from the frame's time-domain profile when it has one, otherwise in
// closed form from its decode-mode scatterers via BinSpectrum. The
// bin-domain noise of (frame i, bin) comes from its own stream keyed by
// binNoiseSeed, so every reader of one bin — any object, any worker, in any
// order — sees the same vector. bins counts the BinSpectrum evaluations for
// the spotlight span's decode_bins attribute.
type decodeReader struct {
	cfg  *radar.Config
	plan *radar.SynthPlan
	seed int64
	bins atomic.Int64
}

// newDecodeReader returns the run's decode reader over the pipeline's
// synthesis plan.
func (p *Pipeline) newDecodeReader(seed int64) *decodeReader {
	return &decodeReader{cfg: &p.Radar, plan: p.resources().Session.SynthPlanFor(p.Radar), seed: seed}
}

// power returns the decode-mode beamformed power of frame i (fd) at one
// range bin and azimuth.
func (d *decodeReader) power(fd *frameData, i, bin int, az float64) float64 {
	if fd.dec.Bins != nil {
		return d.cfg.BeamPower(fd.dec, bin, az)
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

// resolveWorkers mirrors sweep.Run's worker-count resolution for reporting.
func resolveWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}
