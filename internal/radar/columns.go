package radar

import (
	"math"
	"math/bits"
	"sync"
)

// Columns is the part of one frame's range profile that outlives the frame:
// the per-channel values of the kept bins, in ascending bin order, behind a
// bitmap of them. PointCloudScan fills it once with every bin a steered
// beam can lift to the store's floor (its steering bound, steerBound,
// reaches NumRx times the floor), or KeepBins with the bins its caller
// names; At reads it.
type Columns struct {
	mask  []uint64     // bit b set when bin b was kept
	vals  []complex128 // NumRx values per kept bin
	store *ColumnStore
}

// At returns bin's per-channel values (length NumRx, read-only), or nil
// when the scan dropped the bin.
func (c *Columns) At(bin int) []complex128 {
	w, b := bin>>6, uint(bin&63)
	if c.mask[w]&(1<<b) == 0 {
		return nil
	}
	rank := bits.OnesCount64(c.mask[w] & (1<<b - 1))
	for _, m := range c.mask[:w] {
		rank += bits.OnesCount64(m)
	}
	nr := c.store.numRx
	return c.vals[rank*nr : (rank+1)*nr : (rank+1)*nr]
}

// KeepBins fills c with rp's columns at bins (any order, repeats allowed);
// every other bin reads nil.
func (c *Columns) KeepBins(rp RangeProfile, bins []int) {
	clear(c.mask)
	for _, b := range bins {
		c.mask[b>>6] |= 1 << uint(b&63)
	}
	c.gather(rp)
}

// keep is the scan's pass over rp's last channel: it completes the
// channel-summed power in power (which holds the other channels' sum, or
// nothing when rp has one channel), marks every bin a steered beam can lift
// to the store's floor, and then gathers the marked columns.
//
// A bin is kept when its steering bound (steerBound) reaches NumRx times
// the floor. The bound never exceeds NumRx times the bin's power P, so the
// first pass marks the bins with P >= floor and the second evaluates the
// bound only on those. Both set and clear bits without a branch: which
// bins pass falls at random.
func (c *Columns) keep(rp RangeProfile, power []float64) {
	nr := len(rp.Bins)
	ch, add := rp.Bins[nr-1], nr > 1
	floor := c.store.floor
	for w := range c.mask {
		lo := w << 6
		var m uint64
		for b, v := range ch[lo:min(lo+64, len(ch))] {
			p := real(v)*real(v) + imag(v)*imag(v)
			if add {
				p = power[lo+b] + p
			}
			power[lo+b] = p
			var bit uint64
			if p >= floor {
				bit = 1
			}
			m |= bit << uint(b&63)
		}
		c.mask[w] = m
	}

	// Four channels, as every shipped front end has, take steerBound's
	// sums unrolled in place and in its order, so they keep exactly the
	// bins it would (TestPointCloudScanKeepsColumns compares the two); any
	// other count gathers the column and calls it.
	var x0, x1, x2, x3 []complex128
	if nr == 4 {
		x0, x1, x2, x3 = rp.Bins[0], rp.Bins[1], rp.Bins[2], rp.Bins[3]
	}
	var stack [8]complex128
	col := stack[:]
	if nr > len(stack) {
		col = make([]complex128, nr)
	}
	col = col[:nr]
	reach := float64(nr) * floor
	for w, m := range c.mask {
		lo := w << 6
		for rest := m; rest != 0; rest &= rest - 1 {
			b := bits.TrailingZeros64(rest)
			i := lo + b
			var r float64
			if nr == 4 {
				c0 := complex(real(x0[i]), -imag(x0[i]))
				c1 := complex(real(x1[i]), -imag(x1[i]))
				c2 := complex(real(x2[i]), -imag(x2[i]))
				r = power[i] + 2*(cabs(x1[i]*c0+x2[i]*c1+x3[i]*c2)+cabs(x2[i]*c0+x3[i]*c1)+cabs(x3[i]*c0))
			} else {
				for k, chk := range rp.Bins {
					col[k] = chk[i]
				}
				r = steerBound(col, power[i])
			}
			var drop uint64
			if r < reach {
				drop = 1
			}
			m &^= drop << uint(b)
		}
		c.mask[w] = m
	}
	c.gather(rp)
}

// steerBound returns an upper bound R on |sum_k x_k e^{ikw}|^2 over every
// steering phase w, for the column x with power r0 = sum_k |x_k|^2. Expanding
// the square gives r0 + 2 Re sum_{m>=1} r_m e^{imw}, where
// r_m = sum_k x_{k+m} conj(x_k) is the column's lag-m autocorrelation
// across channels, so by the triangle inequality R = r0 + 2 sum_m |r_m|
// bounds it. SteerPower reads that magnitude over NumRx^2, so no azimuth
// can steer x above R/NumRx^2. R is at most (sum_k |x_k|)^2 <= NumRx*r0,
// and it equals the true maximum for a single plane wave.
func steerBound(x []complex128, r0 float64) float64 {
	var sum float64
	for m := 1; m < len(x); m++ {
		var r complex128
		for k, v := range x[m:] {
			r += v * complex(real(x[k]), -imag(x[k]))
		}
		sum += cabs(r)
	}
	return r0 + 2*sum
}

// cabs is |z|, without cmplx.Abs's scaling against overflow: the squares
// of a column's products stay far inside float64's range, as the squares
// summed into its power do.
func cabs(z complex128) float64 { return math.Sqrt(real(z)*real(z) + imag(z)*imag(z)) }

// gather copies rp's columns at the bins c.mask marks into storage carved
// from the store.
func (c *Columns) gather(rp RangeProfile) {
	kept := 0
	for _, m := range c.mask {
		kept += bits.OnesCount64(m)
	}
	nr := len(rp.Bins)
	vals := c.store.carve(kept * nr)
	j := 0
	for w, m := range c.mask {
		for ; m != 0; m &= m - 1 {
			bin := w<<6 + bits.TrailingZeros64(m)
			for _, ch := range rp.Bins {
				vals[j] = ch[bin]
				j++
			}
		}
	}
	c.vals = vals
}

// ColumnStore is the storage one read's Columns live in, one Columns per
// frame. Kept columns are carved from blocks of one range profile's size,
// taken from and returned to the frame pool that recycles the profiles
// themselves, so a read's columns and the next read's profiles share one
// set of buffers; frames may fill concurrently. Stores are pooled too, so a
// read's per-frame bookkeeping is reused.
type ColumnStore struct {
	numRx, bins int
	floor       float64
	frames      []Columns
	masks       []uint64

	mu sync.Mutex
	// blocks hold the carved columns; off is the next free element of the
	// last one.
	blocks []*chanBuf
	off    int
}

var columnStorePool sync.Pool

// NewColumnStore returns an empty store for a read of the given number of
// frames, each a profile of bins range bins over numRx channels, where
// PointCloudScan keeps the bins whose steering bound is at or above numRx
// times floor (KeepBins ignores it). The caller must Release it once the
// read no longer reads its columns.
func NewColumnStore(frames, numRx, bins int, floor float64) *ColumnStore {
	s, _ := columnStorePool.Get().(*ColumnStore)
	if s == nil {
		s = new(ColumnStore)
	}
	s.numRx, s.bins, s.floor = numRx, bins, floor
	words := (bins + 63) / 64
	s.masks = grow(s.masks, frames*words)
	clear(s.masks)
	s.frames = grow(s.frames, frames)
	for i := range s.frames {
		s.frames[i] = Columns{mask: s.masks[i*words : (i+1)*words], store: s}
	}
	return s
}

// grow returns s resliced to length n, reallocated when its capacity is
// short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Frame returns frame i's columns, for PointCloudScan or KeepBins to fill.
func (s *ColumnStore) Frame(i int) *Columns { return &s.frames[i] }

// Release returns the store's blocks to the frame pool and the store to its
// pool. Neither the store nor any Columns from it may be used afterwards.
func (s *ColumnStore) Release() {
	for i, b := range s.blocks {
		framePool.Put(b)
		s.blocks[i] = nil
	}
	s.blocks, s.off = s.blocks[:0], 0
	clear(s.frames)
	columnStorePool.Put(s)
}

// carve returns n elements of block storage, n <= numRx*bins: at most one
// frame's full profile, so a frame's columns always fit one block.
func (s *ColumnStore) carve(n int) []complex128 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.blocks) == 0 || s.off+n > s.numRx*s.bins {
		s.blocks = append(s.blocks, acquireBuf(s.numRx, s.bins, false))
		s.off = 0
	}
	v := s.blocks[len(s.blocks)-1].flat[s.off : s.off+n : s.off+n]
	s.off += n
	return v
}
