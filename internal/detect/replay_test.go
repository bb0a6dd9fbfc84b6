package detect

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"

	"ros/internal/cluster"
	"ros/internal/dsp"
	"ros/internal/fault"
	"ros/internal/geom"
	"ros/internal/obs"
	"ros/internal/radar"
	"ros/internal/roserr"
	"ros/internal/scene"
	"ros/internal/sweep"
)

// candidates clusters pass 1's merged point cloud the way RunContext does
// and returns the clusters that survive the density filter.
func candidates(p *Pipeline, frames []frameData) []cluster.Stats {
	var merged []cluster.Point
	for _, fd := range frames {
		merged = append(merged, fd.points...)
	}
	labels := cluster.DBSCAN(merged, clusterEps, clusterMinPts)
	var cands []cluster.Stats
	for _, st := range cluster.Summarize(merged, labels, p.Radar.RangeResolution()) {
		if st.Count >= minClusterFrames {
			cands = append(cands, st)
		}
	}
	return cands
}

// replayCases are the two time-domain decode paths: a 12-bit converter,
// and the ideal converter under a fault plan of sample corruption and
// bursts (no drops, so most poses survive to be replayed).
func replayCases(t testing.TB) []struct {
	name  string
	radar radar.Config
	fault *fault.Injector
} {
	t.Helper()
	adc := radar.TI1443()
	adc.ADCBits = 12
	inj, err := fault.New(fault.Config{Seed: 7, CorruptRate: 0.3, BurstRate: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name  string
		radar radar.Config
		fault *fault.Injector
	}{
		{"adc12", adc, nil},
		{"faulted", radar.TI1443(), inj},
	}
}

// driftedPass is passPositions(3, n) seen through a drifting tracker: the
// estimates run up to 5 cm ahead, so the tag sampler's bins differ from
// classifyObject's.
func driftedPass(n int) (truth, est []geom.Vec3) {
	truth = passPositions(3, n)
	est = make([]geom.Vec3, n)
	for i, pos := range truth {
		est[i] = geom.Vec3{X: pos.X + 0.05*float64(i)/float64(n), Y: pos.Y}
	}
	return truth, est
}

// TestDecodeReplayMatchesProfile pins the decode replay against the decode
// profile pass 1 used to keep: rebuilt here by synthesizing the decode frame
// right after the detection frame on the frame's one Gauss stream, applying
// both frames' faults in order, scrubbing and range transforming. Every
// column either reader can ask for (spotView, for every candidate cluster,
// at the true and the estimated pose) must match that profile bit for bit,
// and steer to the same power. After pass 1 no frame holds decode columns.
func TestDecodeReplayMatchesProfile(t *testing.T) {
	for _, tc := range replayCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			const seed = 3
			p := NewPipeline(tc.radar)
			p.Fault = tc.fault
			c := p.Radar
			sc := buildScene(t, "1011", true, rand.New(rand.NewSource(2)))
			truth, est := driftedPass(120)
			vel := geom.Vec3{X: 2}
			cols := radar.NewColumnStore(len(truth), c.NumRx, c.Samples, p.columnFloor())
			defer cols.Release()
			sp := obs.StartSpan("test")
			defer sp.Release()
			frames, _, err := p.synthesizeFrames(context.Background(), sc, truth, vel, seed, cols, sp)
			if err != nil {
				t.Fatal(err)
			}
			for i, fd := range frames {
				if fd.dec != nil {
					t.Fatalf("frame %d holds decode columns after pass 1", i)
				}
			}
			cands := candidates(p, frames)
			if len(cands) < 2 {
				t.Fatalf("%d candidate clusters, want the tag and the tripod", len(cands))
			}
			store := radar.NewColumnStore(len(truth), c.NumRx, c.Samples, 0)
			defer store.Release()
			replayed, err := p.replayDecode(context.Background(), frames, cands, truth, est, store, sp)
			if err != nil {
				t.Fatal(err)
			}

			plan := p.resources().SynthPlan(c)
			dec := p.newDecodeReader(seed)
			read, faulted := 0, 0
			for i, fd := range frames {
				ff := p.Fault.Frame(i)
				sampleFaulted := ff.Corrupt || ff.Burst
				if !fd.ok || fd.replay != (c.ADCBits > 0 || sampleFaulted) {
					if fd.ok {
						t.Fatalf("frame %d: replay %v on a %d-bit converter, sample faults %v",
							i, fd.replay, c.ADCBits, sampleFaulted)
					}
					continue
				}
				if !fd.replay {
					continue
				}
				if fd.dec == nil || fd.decScat != nil {
					t.Fatalf("frame %d: decode columns %v, scatterers kept %v after the replay",
						i, fd.dec != nil, fd.decScat != nil)
				}
				rng := sweep.NewRand(seed, i)
				g := dsp.AcquireGauss(noiseSeed(seed, i))
				detFrame := plan.Synthesize(sc.Scatterers(truth[i], vel, scene.ModeDetect, c.FrontEnd, c.CenterFrequency, rng), g)
				decFrame := plan.Synthesize(sc.Scatterers(truth[i], vel, scene.ModeDecode, c.FrontEnd, c.CenterFrequency, rng), g)
				dsp.ReleaseGauss(g)
				if sampleFaulted {
					ff.Apply(detFrame.Data, c.NumRx, c.Samples)
					ff.Apply(decFrame.Data, c.NumRx, c.Samples)
					radar.ScrubFrame(decFrame)
					faulted++
				}
				radar.ReleaseFrame(detFrame)
				rp := plan.RangeProfile(decFrame)
				radar.ReleaseFrame(decFrame)
				for _, st := range cands {
					for _, pose := range []struct {
						at  geom.Vec3
						tag bool
					}{{truth[i], false}, {est[i], true}} {
						bin, az, _, ok := p.spotView(pose.at, st.Centroid, pose.tag)
						if !ok {
							continue
						}
						want := profileColumn(rp, bin)
						if got := fd.dec.At(bin); !equalColumn(got, want) {
							t.Fatalf("frame %d bin %d: replay kept %v, decode profile has %v", i, bin, got, want)
						}
						if got, full := dec.power(&frames[i], i, bin, az), c.SteerPower(want, az); got != full {
							t.Fatalf("frame %d bin %d: replayed power %v, profile power %v", i, bin, got, full)
						}
						read++
					}
				}
				radar.ReleaseProfile(rp)
			}
			// A bin the replay did not keep is a bug in the caller: power
			// panics rather than fall back to the closed form.
			for i := range frames {
				if frames[i].ok && frames[i].replay {
					bin := 0
					for frames[i].dec.At(bin) != nil {
						bin++
					}
					func() {
						defer func() {
							if recover() == nil {
								t.Errorf("frame %d: reading unreplayed bin %d did not panic", i, bin)
							}
						}()
						dec.power(&frames[i], i, bin, 0)
					}()
					break
				}
			}
			if read == 0 || replayed == 0 {
				t.Fatalf("replayed %d frames and read %d columns, want some", replayed, read)
			}
			if tc.fault != nil && faulted == 0 {
				t.Fatal("fault plan left no sample-faulted frame to replay")
			}
			if d := dec.bins.Load(); d != 0 {
				t.Errorf("replayed frames evaluated %d closed-form decode bins, want 0", d)
			}
			t.Logf("replayed %d frames (%d sample-faulted), checked %d columns", replayed, faulted, read)
		})
	}
}

// resultDigest prints everything a Result reports but its span; %v prints
// each float64 in its shortest exact form, so equal digests mean
// bit-identical results.
func resultDigest(res *Result) string {
	r := *res
	r.Span = nil
	return fmt.Sprintf("%v", r)
}

// TestDecodeReplayIdenticalAcrossWorkers: a 12-bit read and a fault-plan
// read give byte-identical Results at 1, 2 and 4 workers.
func TestDecodeReplayIdenticalAcrossWorkers(t *testing.T) {
	for _, tc := range replayCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			sc := buildScene(t, "1011", true, rand.New(rand.NewSource(2)))
			truth, est := driftedPass(120)
			var want string
			for _, workers := range []int{1, 2, 4} {
				p := NewPipeline(tc.radar)
				p.Fault, p.Workers = tc.fault, workers
				res, err := p.RunContext(context.Background(), sc, truth, est, geom.Vec3{X: 2}, 9)
				if err != nil {
					t.Fatal(err)
				}
				res.Span.Release()
				if res.TagIndex < 0 || len(res.TagRSS) == 0 {
					t.Fatalf("%d workers: no tag samples", workers)
				}
				got := resultDigest(res)
				if workers == 1 {
					want = got
				} else if got != want {
					t.Fatalf("%d workers diverged from 1:\n%s\nvs\n%s", workers, got, want)
				}
			}
		})
	}
}

// errCountCtx cancels itself on the limit-th call to Err. sweep.RunCtx calls
// Err once per point a worker claims, so at one worker a limit past pass 1's
// frame count cuts the run inside the decode replay.
type errCountCtx struct {
	context.Context
	cancel context.CancelFunc
	limit  int64
	calls  atomic.Int64
}

func (c *errCountCtx) Err() error {
	if c.calls.Add(1) == c.limit {
		c.cancel()
	}
	return c.Context.Err()
}

// poolDepth counts the buffers the frame pool can hand out before it must
// allocate, by acquiring frames of plan's shape until one comes back fresh,
// and then returns the pooled ones (the fresh one is dropped, so the pool
// ends as it began). It needs the collector off, which would empty the pool,
// and one P, since a buffer another P holds privately is out of reach.
func poolDepth(plan *radar.SynthPlan, c radar.Config) int {
	var held []radar.Frame
	var ms runtime.MemStats
	for {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		f := plan.Synthesize(nil, nil)
		runtime.ReadMemStats(&ms)
		if ms.TotalAlloc-before >= uint64(16*c.NumRx*c.Samples) {
			break
		}
		held = append(held, f)
	}
	for _, f := range held {
		radar.ReleaseFrame(f)
	}
	return len(held)
}

// TestDecodeReplayCancelReleasesPool: a 12-bit read cancelled inside the
// decode replay returns a partial Result and an error matching
// roserr.ErrReadCancelled, and hands every pooled buffer it took back: the
// frame pool is as deep after the cut read as before it.
func TestDecodeReplayCancelReleasesPool(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	adc := radar.TI1443()
	adc.ADCBits = 12
	p := NewPipeline(adc)
	p.Workers = 1
	sc := buildScene(t, "1011", true, rand.New(rand.NewSource(2)))
	truth, est := driftedPass(120)
	vel := geom.Vec3{X: 2}
	// Fill the pool past anything one read holds at once, so the cut read
	// takes every buffer from it and a buffer it keeps shows as a shortfall.
	plan := p.resources().SynthPlan(adc)
	fill := make([]radar.Frame, 256)
	for i := range fill {
		fill[i] = plan.Synthesize(nil, nil)
	}
	for _, f := range fill {
		radar.ReleaseFrame(f)
	}
	before := poolDepth(plan, adc)

	inner, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &errCountCtx{Context: inner, cancel: cancel, limit: int64(len(truth) + 10)}
	res, err := p.RunContext(ctx, sc, truth, est, vel, 4)
	if !errors.Is(err, roserr.ErrReadCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cut read returned %v, want ErrReadCancelled and context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "decode replay") {
		t.Fatalf("read was not cut inside the decode replay: %v", err)
	}
	if res == nil || !res.Partial || res.FramesCompleted != len(truth) {
		t.Fatalf("cut read result %+v, want Partial with all %d frames completed", res, len(truth))
	}
	res.Span.Release()
	if after := poolDepth(plan, adc); after < before {
		t.Fatalf("frame pool holds %d buffers after the cut read, %d before: %d not released",
			after, before, before-after)
	}
}
