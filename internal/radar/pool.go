package radar

import "sync"

// chanBuf is the pooled backing store behind frames and range profiles: one
// contiguous channel-major buffer plus per-channel views over it. Frames use
// flat directly (the batched range transform consumes the contiguous
// layout); range profiles expose the views as RangeProfile.Bins. No profile
// outlives its frame: a detection-mode profile lives until its frame's scan
// has copied the columns the spotlight can read, a replayed decode-mode
// profile until the columns its readers ask for are copied (Columns), so
// the pool holds per-worker scratch plus the column blocks. The buffer holds
// the samples and nothing else: the float64 scratch lanes of the tone kernel
// and the point-cloud scan live on the caller's stack (laneScratch).
type chanBuf struct {
	flat  []complex128
	views [][]complex128
	// numRx and n record the shape the views currently describe, so a
	// same-shape reuse skips rebuilding them.
	numRx, n int
}

// newChanBuf allocates a fresh [numRx][n] buffer.
func newChanBuf(numRx, n int) *chanBuf {
	b := &chanBuf{flat: make([]complex128, numRx*n)}
	b.reshape(numRx, n)
	return b
}

// reshape reslices the buffer to [numRx][n], rebuilding the channel views
// only when the shape actually changed. The caller guarantees
// cap(flat) >= numRx*n.
func (b *chanBuf) reshape(numRx, n int) {
	b.flat = b.flat[:numRx*n]
	if b.numRx == numRx && b.n == n {
		return
	}
	if cap(b.views) < numRx {
		b.views = make([][]complex128, numRx)
	}
	b.views = b.views[:numRx]
	for k := range b.views {
		b.views[k] = b.flat[k*n : (k+1)*n]
	}
	b.numRx, b.n = numRx, n
}

// framePool recycles the chanBufs of every synthesis plan in the process. A
// drive-by synthesizes and transforms one frame per pose on the ideal
// converter (280 per pass; quantized configs replay a decode frame too), and
// with the frame loop running on a worker pool the buffers would otherwise
// be reallocated from every worker; recycling them keeps the steady-state
// allocation rate near zero. One pool serves all plans, so plans of the same
// shape (a sweep over ADC resolutions, say) recycle one set of buffers
// instead of each keeping its own high-water set.
//
// Reuse is by capacity, not exact shape: a pooled buffer big enough for the
// requested [numRx][n] is resliced to it, so heterogeneous shapes keep
// recycling one high-water-mark buffer instead of degrading to a malloc per
// frame whenever the shape flips. Only a buffer strictly too small for the
// request is dropped for the garbage collector.
var framePool sync.Pool

// acquireBuf returns a pooled [numRx][n] buffer, zeroed when zero is set
// (frame synthesis accumulates with +=; the range transform overwrites every
// element and skips the clear).
func acquireBuf(numRx, n int, zero bool) *chanBuf {
	if v := framePool.Get(); v != nil {
		b := v.(*chanBuf)
		if cap(b.flat) >= numRx*n {
			b.reshape(numRx, n)
			if zero {
				clear(b.flat)
			}
			return b
		}
		// Too small for this request: drop it and allocate at the new
		// high-water mark, which then serves every smaller shape.
	}
	return newChanBuf(numRx, n)
}

// ReleaseFrame returns a frame's sample buffer to the pool. The caller must
// not touch the frame afterwards; frames that escape to long-lived results
// should simply not be released.
func ReleaseFrame(f Frame) {
	if f.buf != nil {
		framePool.Put(f.buf)
	}
}

// ReleaseProfile returns a range profile's bin buffers to the pool. Same
// contract as ReleaseFrame.
func ReleaseProfile(rp RangeProfile) {
	if rp.buf != nil {
		framePool.Put(rp.buf)
	}
}

// stackLanes is the profile length up to which laneScratch's backing array
// (two lanes of it) lives on the caller's stack; the TI1443 and commercial
// configs use 256 samples.
const stackLanes = 256

// laneScratch returns two float64 lanes of length n carved from stack, the
// caller's [2*stackLanes]float64 array, or from a fresh allocation when n is
// longer. Declaring the array in the caller keeps the lanes off the heap, so
// the tone kernel and the point-cloud scan allocate nothing per frame and
// no pooled buffer has to carry them.
func laneScratch(stack []float64, n int) (a, b []float64) {
	if 2*n > len(stack) {
		stack = make([]float64, 2*n)
	}
	return stack[:n], stack[n : 2*n]
}
