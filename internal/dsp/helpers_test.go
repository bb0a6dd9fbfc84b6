package dsp

// Forward runs the plan's windowed forward transform out of place, dst =
// FFT(win .* src) / coherentGain: the oracle ForwardMagnitude and the
// round-trip tests check production against. dst and src must be distinct
// n-point slices.
func (p *Plan) Forward(dst, src []complex128) { p.stages(dst, src, p.fwdCoef, p.roots) }

// Inverse is InverseMany on one channel.
func (p *Plan) Inverse(dst, src []complex128) { p.InverseMany(dst, src, 1, p.n) }
