// Package track models vehicle self-tracking (Sec 6): the decoder needs the
// radar's position at every frame to merge point clouds and to resample the
// tag RCS over u = cos(theta). Modern vehicles interpolate IMU and wheel
// speed; the residual is a slowly growing drift, which Fig 16d sweeps from
// 2 to 10 percent of distance traveled.
package track

import (
	"fmt"
	"math"
	"math/rand"

	"ros/internal/geom"
)

// Tracker perturbs ground-truth trajectories with dead-reckoning drift.
type Tracker struct {
	// RelativeError is the drift magnitude as a fraction of distance
	// traveled (Fig 16d's x axis: 0.02 to 0.10).
	RelativeError float64
}

// correlationFrames sets the smoothness of the drift process: the per-frame
// scale error is an AR(1) process with this correlation length in frames.
const correlationFrames = 50

// Estimate returns estimated radar positions for the true per-frame
// positions: each frame's displacement is scaled by (1 + e_t), where e_t is
// a smooth zero-mean process with standard deviation RelativeError, so the
// accumulated position error grows roughly as RelativeError times the
// distance traveled — the standard dead-reckoning error model of the
// wheel-IMU literature the paper cites [60, 61].
func (tr Tracker) Estimate(truth []geom.Vec3, rng *rand.Rand) ([]geom.Vec3, error) {
	if len(truth) == 0 {
		return nil, fmt.Errorf("track: empty trajectory")
	}
	if tr.RelativeError < 0 {
		return nil, fmt.Errorf("track: negative relative error %g", tr.RelativeError)
	}
	out := make([]geom.Vec3, len(truth))
	out[0] = truth[0]
	if tr.RelativeError == 0 || len(truth) == 1 {
		copy(out, truth)
		return out, nil
	}
	if rng == nil {
		return nil, fmt.Errorf("track: drift injection requires an rng")
	}
	alpha := math.Exp(-1.0 / correlationFrames)
	// Controlled drift as in Fig 16d: a per-run odometry scale bias of the
	// requested relative magnitude (random sign), plus a smaller smooth
	// AR(1) jitter that keeps the error from being a pure rescale.
	bias := tr.RelativeError
	if rng.Intn(2) == 1 {
		bias = -bias
	}
	sigma := 0.3 * tr.RelativeError
	e := rng.NormFloat64() * sigma
	drive := math.Sqrt(1 - alpha*alpha)
	for i := 1; i < len(truth); i++ {
		step := truth[i].Sub(truth[i-1])
		out[i] = out[i-1].Add(step.Scale(1 + bias + e))
		e = alpha*e + drive*sigma*rng.NormFloat64()
	}
	return out, nil
}
