// Package fault is a deterministic, seedable fault-injection layer for the
// read pipeline. It models the failure modes a roadside reader meets in the
// field — frames lost whole (occlusion, bus stalls), samples corrupted to
// NaN/Inf (front-end glitches), finite burst interference, workers that
// panic, and stage latency — behind the existing radar/detect seams, off by
// default and exercised by the chaos test suite.
//
// Every decision is a pure function of (Config.Seed, frame index), derived
// through the same SplitMix64 mixing as the frame noise streams but on a
// salted seed, so fault patterns reproduce exactly at any worker count and
// never perturb the physics RNG: a run with fault injection disabled is
// byte-identical to one that never imported this package.
package fault

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"ros/internal/roserr"
	"ros/internal/sweep"
)

// seedSalt decorrelates the fault decision streams from the frame noise
// streams, which are seeded from the same root seed.
const seedSalt int64 = 0x6661756c74 // "fault"

// Config holds the fault-injection knobs. The zero value injects nothing.
type Config struct {
	// Seed drives every fault decision; independent of the physics seed.
	Seed int64
	// FrameDropRate is the per-frame probability of losing the frame whole.
	FrameDropRate float64
	// CorruptRate is the per-frame probability of sample corruption: one
	// channel per polarization mode gets CorruptFraction of its samples
	// overwritten with NaN/±Inf.
	CorruptRate float64
	// CorruptFraction is the fraction of the hit channel's samples
	// overwritten (default 0.02). Fractions past the scrubber's repair
	// threshold turn corruption into frame loss.
	CorruptFraction float64
	// BurstRate is the per-frame probability of a finite burst-noise event:
	// a contiguous run of BurstFraction of one channel's samples gets
	// high-power noise of amplitude BurstAmplitude added.
	BurstRate float64
	// BurstFraction is the burst length as a fraction of the channel
	// (default 0.1).
	BurstFraction float64
	// BurstAmplitude is the linear burst amplitude in sqrt-watts (default
	// 1e-4, ~12 dB above the TI front end's thermal floor).
	BurstAmplitude float64
	// PanicRate is the per-frame probability of an injected worker panic,
	// exercising the sweep pool's recovery path.
	PanicRate float64
	// DelayRate is the per-frame probability of artificial stage latency.
	DelayRate float64
	// Delay is the injected latency per affected frame (default 1 ms when
	// DelayRate is set).
	Delay time.Duration
}

// Validate reports whether the configuration is usable. Rates must be
// probabilities and fractions must stay in (0, 1]; a bad fault config is a
// configuration error, never a runtime fault.
func (c Config) Validate() error {
	rates := []struct {
		name string
		v    float64
	}{
		{"FrameDropRate", c.FrameDropRate},
		{"CorruptRate", c.CorruptRate},
		{"BurstRate", c.BurstRate},
		{"PanicRate", c.PanicRate},
		{"DelayRate", c.DelayRate},
	}
	for _, r := range rates {
		if r.v < 0 || r.v > 1 || math.IsNaN(r.v) {
			return fmt.Errorf("fault: %w: %s %g outside [0, 1]", roserr.ErrConfig, r.name, r.v)
		}
	}
	if f := c.CorruptFraction; f < 0 || f > 1 || math.IsNaN(f) {
		return fmt.Errorf("fault: %w: CorruptFraction %g outside [0, 1]", roserr.ErrConfig, f)
	}
	if f := c.BurstFraction; f < 0 || f > 1 || math.IsNaN(f) {
		return fmt.Errorf("fault: %w: BurstFraction %g outside [0, 1]", roserr.ErrConfig, f)
	}
	if c.BurstAmplitude < 0 || math.IsNaN(c.BurstAmplitude) {
		return fmt.Errorf("fault: %w: negative BurstAmplitude %g", roserr.ErrConfig, c.BurstAmplitude)
	}
	if c.Delay < 0 {
		return fmt.Errorf("fault: %w: negative Delay %v", roserr.ErrConfig, c.Delay)
	}
	return nil
}

// Injector hands out deterministic per-frame fault decisions. A nil
// *Injector is valid and injects nothing.
type Injector struct {
	cfg Config
}

// New validates the configuration and returns an injector for it.
func New(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.CorruptFraction == 0 {
		cfg.CorruptFraction = 0.02
	}
	if cfg.BurstFraction == 0 {
		cfg.BurstFraction = 0.1
	}
	if cfg.BurstAmplitude == 0 {
		cfg.BurstAmplitude = 1e-4
	}
	if cfg.Delay == 0 && cfg.DelayRate > 0 {
		cfg.Delay = time.Millisecond
	}
	return &Injector{cfg: cfg}, nil
}

// FrameFaults is the fault decision for one frame. The zero value injects
// nothing.
type FrameFaults struct {
	// Drop loses the frame whole.
	Drop bool
	// Panic makes the frame's worker panic (the pool recovers it).
	Panic bool
	// Corrupt overwrites samples with NaN/±Inf via Apply.
	Corrupt bool
	// Burst adds finite high-power noise via Apply.
	Burst bool
	// Delay is artificial stage latency to sleep before the frame.
	Delay time.Duration

	cfg Config
	rng *rand.Rand
}

// Frame returns the fault decision for frame i. The decision depends only on
// (Config.Seed, i) — the five gate draws happen in fixed order regardless of
// which faults are enabled, so enabling one knob never reshuffles another's
// pattern. A nil injector returns the zero decision.
func (in *Injector) Frame(i int) FrameFaults {
	if in == nil {
		return FrameFaults{}
	}
	rng := sweep.NewRand(in.cfg.Seed^seedSalt, i)
	ff := FrameFaults{cfg: in.cfg, rng: rng}
	ff.Drop = rng.Float64() < in.cfg.FrameDropRate
	ff.Panic = rng.Float64() < in.cfg.PanicRate
	ff.Corrupt = rng.Float64() < in.cfg.CorruptRate
	ff.Burst = rng.Float64() < in.cfg.BurstRate
	if rng.Float64() < in.cfg.DelayRate {
		ff.Delay = in.cfg.Delay
	}
	return ff
}

// KindCounts totals a fault schedule by kind over a frame range.
type KindCounts struct {
	Drop, Panic, Corrupt, Burst, Delay int
}

// Total is the number of scheduled fault events across all kinds.
func (k KindCounts) Total() int {
	return k.Drop + k.Panic + k.Corrupt + k.Burst + k.Delay
}

// Labels lists the kinds that fired at least once, in the fixed gate-draw
// order — the flight recorder's FaultKinds field.
func (k KindCounts) Labels() []string {
	var out []string
	for _, e := range []struct {
		name string
		n    int
	}{
		{"drop", k.Drop},
		{"panic", k.Panic},
		{"corrupt", k.Corrupt},
		{"burst", k.Burst},
		{"delay", k.Delay},
	} {
		if e.n > 0 {
			out = append(out, e.name)
		}
	}
	return out
}

// Kinds replays the injector's decision schedule for frames 0..n-1 and
// totals it by kind. Because Frame(i) is a pure function of (seed, i), the
// counts predict exactly what a run over n frame poses injects — the chaos
// suite compares them against the flight recorder's per-read counters. A nil
// injector schedules nothing.
func (in *Injector) Kinds(n int) KindCounts {
	var k KindCounts
	if in == nil {
		return k
	}
	for i := 0; i < n; i++ {
		ff := in.Frame(i)
		if ff.Drop {
			k.Drop++
		}
		if ff.Panic {
			k.Panic++
		}
		if ff.Corrupt {
			k.Corrupt++
		}
		if ff.Burst {
			k.Burst++
		}
		if ff.Delay > 0 {
			k.Delay++
		}
	}
	return k
}

// Apply injects the decision's sample-level faults into one channel-major
// frame buffer (channel k occupies data[k*samples : (k+1)*samples]) and
// returns how many samples were overwritten with non-finite values. The
// positions continue the frame's decision stream, so they too depend only on
// (seed, frame index). Drop/Panic/Delay are the caller's to enforce.
// The draws do not depend on the data, so nil data just skips them.
func (ff FrameFaults) Apply(data []complex128, numRx, samples int) (nonFinite int) {
	return ff.apply(data, nil, numRx, samples)
}

// NonFinite consumes the same draws as Apply and returns how many distinct
// samples its corruption overwrites: the count ScrubFrame finds after Apply
// on a frame of finite samples (a position hit twice is one sample, and
// bursts add finite values), without synthesizing the frame.
func (ff FrameFaults) NonFinite(numRx, samples int) int {
	return ff.apply(nil, make([]uint64, (max(samples, 0)+63)/64), numRx, samples)
}

// apply is Apply and NonFinite: with seen non-nil it marks each corrupted
// offset within the hit channel there and counts the distinct ones instead
// of writing data.
func (ff FrameFaults) apply(data []complex128, seen []uint64, numRx, samples int) (nonFinite int) {
	if ff.rng == nil || numRx < 1 || samples < 1 {
		return 0
	}
	if ff.Corrupt {
		ch := ff.rng.Intn(numRx)
		hits := int(math.Ceil(ff.cfg.CorruptFraction * float64(samples)))
		base := ch * samples
		for h := 0; h < hits; h++ {
			off := ff.rng.Intn(samples)
			t := base + off
			if seen != nil {
				if bit := uint64(1) << (off % 64); seen[off/64]&bit == 0 {
					seen[off/64] |= bit
					nonFinite++
				}
				continue
			}
			if data == nil {
				continue
			}
			switch h % 3 {
			case 0:
				data[t] = complex(math.NaN(), imag(data[t]))
			case 1:
				data[t] = complex(math.Inf(1), math.Inf(1))
			default:
				data[t] = complex(real(data[t]), math.Inf(-1))
			}
			nonFinite++
		}
	}
	if ff.Burst {
		ch := ff.rng.Intn(numRx)
		length := int(math.Ceil(ff.cfg.BurstFraction * float64(samples)))
		start := ff.rng.Intn(samples)
		base := ch * samples
		amp := ff.cfg.BurstAmplitude
		for t := 0; t < length; t++ {
			idx := base + (start+t)%samples
			phase := 2 * math.Pi * ff.rng.Float64()
			if data == nil {
				continue
			}
			s, c := math.Sincos(phase)
			data[idx] += complex(amp*c, amp*s)
		}
	}
	return nonFinite
}
