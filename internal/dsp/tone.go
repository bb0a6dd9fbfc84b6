package dsp

// Structure-of-arrays tone kernels for the frame synthesizer. One scatterer
// contributes the same complex tone cur*step^t to every Rx channel, rotated
// by a per-channel steering phasor; the old executor re-ran the
// latency-bound rotation recurrence once per channel. The kernel splits the
// work instead: ToneFill runs the recurrence exactly once per scatterer
// into split re/im float64 lanes, and AccumulateTone/AccumulateRotated
// spread the finished lanes across the channels as independent
// multiply-adds with no loop-carried dependency — the loops the superscalar
// core (or a vectorizing compiler) can actually overlap.
//
// The lane kernel (tone_lanes.go) advances four phasor lanes a stride of
// step^4 apart and renormalizes them every toneRenormInterval samples, so
// multiplicative rounding drift stays bounded on arbitrarily long frames.
// tone_test.go pins it to a per-sample Sincos reference at 1e-9.

// toneRenormInterval is the phasor renormalization period of the kernel:
// |step| = 1 up to rounding, so lane magnitude drifts by ~1 ulp per
// multiply; rescaling back to the scatterer amplitude every 512 samples
// bounds the drift at ~1e-13 relative regardless of frame length.
const toneRenormInterval = 512
