// Package cluster implements the DBSCAN density-based clustering algorithm
// (Ester et al., the paper's [15]) that RoS uses to group radar point-cloud
// detections into candidate objects (Sec 6), plus the per-cluster statistics
// (size, density, centroid) the tag-detection features are computed from.
package cluster

import (
	"math"

	"ros/internal/geom"
)

// Noise is the label assigned to points that belong to no cluster.
const Noise = -1

// Point is a weighted 2-D point-cloud sample. Weight carries the detected
// reflected signal strength so cluster statistics can be power-weighted.
type Point struct {
	Pos    geom.Vec2
	Weight float64
}

// DBSCAN clusters points with neighbourhood radius eps and core threshold
// minPts. It returns one label per point: 0..k-1 for cluster membership or
// Noise. The classic algorithm from the paper's reference [15] is used. The
// neighbourhood query runs against an eps-sized uniform grid index — a point
// only needs its own and the 8 adjacent cells — so a whole-pass merged cloud
// clusters in O(n) expected instead of the O(n^2) a brute-force scan costs.
// Labels are independent of the order neighbours are enumerated in (cluster
// expansion reaches the same density-connected set either way), so the grid
// returns exactly the labels of the brute-force reference — a property the
// package tests check.
func DBSCAN(points []Point, eps float64, minPts int) []int {
	labels := make([]int, len(points))
	for i := range labels {
		labels[i] = Noise
	}
	if len(points) == 0 || eps <= 0 || minPts < 1 {
		return labels
	}
	g := newGridIndex(points, eps)
	return dbscan(points, minPts, labels, g.neighbours)
}

// dbscan is the expansion loop over an arbitrary neighbourhood query.
// neighbours must append every index j (including i itself) with
// dist(i, j) <= eps to buf and return it; buf comes in with length 0 so
// queries can reuse its capacity.
//
// A point is marked visited when it is queued, so the frontier holds each
// point at most once and stays O(n), where appending every core point's
// whole neighbourhood grows it to O(n^2) entries on a dense cluster. Noise
// neighbours take the cluster's label when they are found. The frontier
// visits the same points in the same first-seen order as the append-all
// loop, so the labels are identical.
func dbscan(points []Point, minPts int, labels []int, neighbours func(i int, buf []int) []int) []int {
	visited := make([]bool, len(points))
	next := 0
	var frontier, buf []int
	for i := range points {
		if visited[i] {
			continue
		}
		visited[i] = true
		buf = neighbours(i, buf[:0])
		if len(buf) < minPts {
			continue // noise (may later be claimed as a border point)
		}
		c := next
		next++
		labels[i] = c
		// The core point heads its cluster's frontier; buf already holds
		// its neighbourhood.
		frontier = append(frontier[:0], i)
		for k := 0; k < len(frontier); k++ {
			if k > 0 {
				if buf = neighbours(frontier[k], buf[:0]); len(buf) < minPts {
					continue // border point: labelled, not expanded
				}
			}
			for _, j := range buf {
				if labels[j] == Noise {
					labels[j] = c
				}
				if !visited[j] {
					visited[j] = true
					frontier = append(frontier, j)
				}
			}
		}
	}
	return labels
}

// gridIndex is a uniform grid over the point cloud with cell size eps: every
// neighbour of a point lies in its own or one of the 8 adjacent cells. Cells
// are identified by packed integer coordinates in a map (the occupied-cell
// count is at most n, so memory stays O(n) no matter how sparse the cloud),
// and member indices live in one CSR-style array grouped by cell.
type gridIndex struct {
	points []Point
	eps2   float64
	inv    float64 // 1/eps
	cells  map[uint64]int32
	start  []int32 // CSR offsets per compact cell id, len(cells)+1
	idx    []int32 // point indices grouped by cell
}

// cellKey packs signed cell coordinates into one map key. A coordinate
// collision (beyond 2^31 cells apart) only merges far-apart buckets, adding
// candidates the exact distance test filters out — never missing one.
func cellKey(ix, iy int64) uint64 {
	return uint64(ix)<<32 ^ (uint64(iy) & 0xffffffff)
}

func newGridIndex(points []Point, eps float64) *gridIndex {
	n := len(points)
	g := &gridIndex{points: points, eps2: eps * eps, inv: 1 / eps}
	g.cells = make(map[uint64]int32, n/4+1)
	cellOf := make([]int32, n)
	var counts []int32
	for i, p := range points {
		k := cellKey(g.cellCoords(p.Pos))
		id, ok := g.cells[k]
		if !ok {
			id = int32(len(counts))
			g.cells[k] = id
			counts = append(counts, 0)
		}
		cellOf[i] = id
		counts[id]++
	}
	g.start = make([]int32, len(counts)+1)
	for c, cnt := range counts {
		g.start[c+1] = g.start[c] + cnt
	}
	g.idx = make([]int32, n)
	fill := append([]int32(nil), g.start[:len(counts)]...)
	for i := range points {
		c := cellOf[i]
		g.idx[fill[c]] = int32(i)
		fill[c]++
	}
	return g
}

func (g *gridIndex) cellCoords(p geom.Vec2) (int64, int64) {
	return int64(math.Floor(p.X * g.inv)), int64(math.Floor(p.Y * g.inv))
}

// neighbours appends every point within eps of point i (i included) to out.
func (g *gridIndex) neighbours(i int, out []int) []int {
	p := g.points[i].Pos
	ix, iy := g.cellCoords(p)
	for dx := int64(-1); dx <= 1; dx++ {
		for dy := int64(-1); dy <= 1; dy++ {
			id, ok := g.cells[cellKey(ix+dx, iy+dy)]
			if !ok {
				continue
			}
			for _, j := range g.idx[g.start[id]:g.start[id+1]] {
				d := p.Sub(g.points[j].Pos)
				if d.X*d.X+d.Y*d.Y <= g.eps2 {
					out = append(out, int(j))
				}
			}
		}
	}
	return out
}

// Stats summarizes one cluster.
type Stats struct {
	// Label is the cluster id.
	Label int
	// Count is the number of member points.
	Count int
	// Centroid is the weight-weighted center of gravity (Sec 6: "RoS
	// calculates its center of gravity and assigns it as the location of
	// the corresponding object").
	Centroid geom.Vec2
	// Extent is the RMS distance of the members from the centroid — the
	// "point cloud size" feature of Fig 13b.
	Extent float64
	// Density is Count divided by the area of the bounding circle of
	// radius max(Extent, epsFloor); larger for compact, persistent
	// reflectors.
	Density float64
	// TotalWeight sums the member weights (aggregate RSS).
	TotalWeight float64
}

// Summarize computes per-cluster statistics from DBSCAN labels. Noise points
// are skipped. Clusters are returned indexed by label. epsFloor bounds the
// radius used in the density computation away from zero.
func Summarize(points []Point, labels []int, epsFloor float64) []Stats {
	if len(points) != len(labels) {
		panic("cluster: points and labels length mismatch")
	}
	maxLabel := -1
	for _, l := range labels {
		if l > maxLabel {
			maxLabel = l
		}
	}
	if maxLabel < 0 {
		return nil
	}
	out := make([]Stats, maxLabel+1)
	for i := range out {
		out[i].Label = i
	}
	// First pass: centroids.
	for i, p := range points {
		l := labels[i]
		if l == Noise {
			continue
		}
		s := &out[l]
		w := p.Weight
		if w <= 0 {
			w = 1e-12
		}
		s.Count++
		s.TotalWeight += w
		s.Centroid = s.Centroid.Add(p.Pos.Scale(w))
	}
	for i := range out {
		if out[i].TotalWeight > 0 {
			out[i].Centroid = out[i].Centroid.Scale(1 / out[i].TotalWeight)
		}
	}
	// Second pass: extent.
	for i, p := range points {
		l := labels[i]
		if l == Noise {
			continue
		}
		d := p.Pos.Dist(out[l].Centroid)
		out[l].Extent += d * d
	}
	for i := range out {
		if out[i].Count > 0 {
			out[i].Extent = math.Sqrt(out[i].Extent / float64(out[i].Count))
			r := out[i].Extent
			if r < epsFloor {
				r = epsFloor
			}
			out[i].Density = float64(out[i].Count) / (math.Pi * r * r)
		}
	}
	return out
}
