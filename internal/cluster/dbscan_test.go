package cluster

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"ros/internal/geom"
)

// blob generates n points normally distributed around center.
func blob(rng *rand.Rand, center geom.Vec2, sigma float64, n int) []Point {
	out := make([]Point, n)
	for i := range out {
		out[i] = Point{
			Pos:    geom.Vec2{X: center.X + rng.NormFloat64()*sigma, Y: center.Y + rng.NormFloat64()*sigma},
			Weight: 1,
		}
	}
	return out
}

func TestDBSCANTwoBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := append(blob(rng, geom.Vec2{X: 0, Y: 0}, 0.05, 50), blob(rng, geom.Vec2{X: 5, Y: 0}, 0.05, 50)...)
	labels := DBSCAN(pts, 0.3, 4)
	// All points in blob A share one label, blob B another, and they differ.
	la, lb := labels[0], labels[50]
	if la == Noise || lb == Noise {
		t.Fatalf("blob cores marked as noise: %d, %d", la, lb)
	}
	if la == lb {
		t.Fatal("two distant blobs merged")
	}
	for i := 0; i < 50; i++ {
		if labels[i] != la {
			t.Fatalf("point %d of blob A labelled %d, want %d", i, labels[i], la)
		}
		if labels[i+50] != lb {
			t.Fatalf("point %d of blob B labelled %d, want %d", i, labels[i+50], lb)
		}
	}
}

func TestDBSCANNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := blob(rng, geom.Vec2{}, 0.05, 30)
	pts = append(pts, Point{Pos: geom.Vec2{X: 100, Y: 100}, Weight: 1})
	labels := DBSCAN(pts, 0.3, 4)
	if labels[len(labels)-1] != Noise {
		t.Errorf("isolated point labelled %d, want Noise", labels[len(labels)-1])
	}
}

func TestDBSCANAllNoise(t *testing.T) {
	pts := []Point{
		{Pos: geom.Vec2{X: 0, Y: 0}},
		{Pos: geom.Vec2{X: 10, Y: 0}},
		{Pos: geom.Vec2{X: 0, Y: 10}},
	}
	labels := DBSCAN(pts, 1, 2)
	for i, l := range labels {
		if l != Noise {
			t.Errorf("point %d labelled %d, want Noise", i, l)
		}
	}
}

func TestDBSCANEmptyAndDegenerate(t *testing.T) {
	if l := DBSCAN(nil, 1, 2); len(l) != 0 {
		t.Errorf("labels of nil = %v", l)
	}
	pts := []Point{{Pos: geom.Vec2{}}}
	if l := DBSCAN(pts, 0, 2); l[0] != Noise {
		t.Errorf("eps=0 labelled %d", l[0])
	}
	if l := DBSCAN(pts, 1, 0); l[0] != Noise {
		t.Errorf("minPts=0 labelled %d", l[0])
	}
}

func TestDBSCANBorderPoints(t *testing.T) {
	// A chain: dense core plus one border point within eps of a core point
	// but with too few neighbours of its own.
	pts := []Point{
		{Pos: geom.Vec2{X: 0.0}}, {Pos: geom.Vec2{X: 0.1}}, {Pos: geom.Vec2{X: 0.2}},
		{Pos: geom.Vec2{X: 0.3}}, {Pos: geom.Vec2{X: 0.4}},
		{Pos: geom.Vec2{X: 0.8}}, // border: only the core point at 0.4 within eps
	}
	labels := DBSCAN(pts, 0.45, 3)
	if labels[5] == Noise {
		t.Error("border point not absorbed into the cluster")
	}
	if labels[5] != labels[0] {
		t.Errorf("border point labelled %d, core labelled %d", labels[5], labels[0])
	}
}

func TestDBSCANLabelInvariants(t *testing.T) {
	// Property: labels are either Noise or in [0, k), and every non-noise
	// label is used by at least minPts points or absorbed as border points
	// (at least 1 point).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var pts []Point
		nBlobs := 1 + rng.Intn(3)
		for b := 0; b < nBlobs; b++ {
			c := geom.Vec2{X: rng.Float64() * 20, Y: rng.Float64() * 20}
			pts = append(pts, blob(rng, c, 0.1, 5+rng.Intn(20))...)
		}
		labels := DBSCAN(pts, 0.5, 4)
		if len(labels) != len(pts) {
			return false
		}
		maxL := -1
		counts := map[int]int{}
		for _, l := range labels {
			if l < Noise {
				return false
			}
			if l > maxL {
				maxL = l
			}
			counts[l]++
		}
		for l := 0; l <= maxL; l++ {
			if counts[l] == 0 {
				return false // label gap
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// textbookExpand is the expansion loop as the textbook writes it: every
// core point's whole neighbourhood is appended to the seed list, duplicates
// included, and a point is visited when its entry comes up. It is the oracle
// the production frontier (dbscan) must match label for label; its seed list
// grows to O(n^2) entries on a dense cluster.
func textbookExpand(points []Point, minPts int, labels []int, neighbours func(i int, buf []int) []int) []int {
	visited := make([]bool, len(points))
	next := 0
	var seeds, buf []int
	for i := range points {
		if visited[i] {
			continue
		}
		visited[i] = true
		seeds = neighbours(i, seeds[:0])
		if len(seeds) < minPts {
			continue // noise (may later be claimed as a border point)
		}
		c := next
		next++
		labels[i] = c
		for k := 0; k < len(seeds); k++ {
			j := seeds[k]
			if !visited[j] {
				visited[j] = true
				buf = neighbours(j, buf[:0])
				if len(buf) >= minPts {
					seeds = append(seeds, buf...)
				}
			}
			if labels[j] == Noise {
				labels[j] = c
			}
		}
	}
	return labels
}

// bruteNeighbours is the O(n^2) reference query the grid index replaced:
// the oracle of the equivalence property tests.
func bruteNeighbours(points []Point, eps2 float64, i int, out []int) []int {
	pi := points[i].Pos
	for j := range points {
		d := pi.Sub(points[j].Pos)
		if d.X*d.X+d.Y*d.Y <= eps2 {
			out = append(out, j)
		}
	}
	return out
}

// bruteDBSCAN is the reference DBSCAN: the textbook expansion over the
// O(n^2) neighbourhood query the grid index replaced. The equivalence tests
// compare the production path against it, so they cover both the query and
// the expansion.
func bruteDBSCAN(points []Point, eps float64, minPts int) []int {
	labels := make([]int, len(points))
	for i := range labels {
		labels[i] = Noise
	}
	if len(points) == 0 || eps <= 0 || minPts < 1 {
		return labels
	}
	eps2 := eps * eps
	return textbookExpand(points, minPts, labels, func(i int, buf []int) []int {
		return bruteNeighbours(points, eps2, i, buf)
	})
}

func TestDBSCANGridMatchesBruteForce(t *testing.T) {
	// Property: the grid-indexed neighbourhood query yields exactly the
	// labels of the brute-force reference on random clouds — blobs of
	// varying density, uniform noise, random eps and minPts.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var pts []Point
		nBlobs := 1 + rng.Intn(4)
		for b := 0; b < nBlobs; b++ {
			c := geom.Vec2{X: rng.Float64()*8 - 4, Y: rng.Float64()*8 - 4}
			pts = append(pts, blob(rng, c, 0.05+rng.Float64()*0.4, 5+rng.Intn(40))...)
		}
		for i := rng.Intn(25); i > 0; i-- {
			pts = append(pts, Point{Pos: geom.Vec2{X: rng.Float64()*40 - 20, Y: rng.Float64()*40 - 20}, Weight: 1})
		}
		eps := 0.1 + rng.Float64()*0.6
		minPts := 1 + rng.Intn(6)
		return slices.Equal(DBSCAN(pts, eps, minPts), bruteDBSCAN(pts, eps, minPts))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDBSCANEpsBoundary(t *testing.T) {
	// Points exactly eps apart are neighbours (the <= in the distance
	// test); they land in adjacent grid cells, so the 3x3 cell walk must
	// keep the boundary pair. Exactly representable coordinates make the
	// distances exact in floating point.
	pts := []Point{
		{Pos: geom.Vec2{X: 0}}, {Pos: geom.Vec2{X: 1}}, {Pos: geom.Vec2{X: 2}},
		{Pos: geom.Vec2{X: 3.5}}, // beyond eps of the chain: noise
	}
	labels := DBSCAN(pts, 1, 3)
	if want := bruteDBSCAN(pts, 1, 3); !slices.Equal(labels, want) {
		t.Fatalf("grid labels %v != brute-force %v", labels, want)
	}
	for i := 0; i < 3; i++ {
		if labels[i] != 0 {
			t.Errorf("chain point %d labelled %d, want 0", i, labels[i])
		}
	}
	if labels[3] != Noise {
		t.Errorf("distant point labelled %d, want Noise", labels[3])
	}
}

func TestDBSCANGridNegativeAndSpreadCoords(t *testing.T) {
	// Negative coordinates exercise the signed cell packing; a far-flung
	// cloud exercises the sparse map (no dense allocation by extent).
	rng := rand.New(rand.NewSource(9))
	pts := append(blob(rng, geom.Vec2{X: -1e6, Y: -1e6}, 0.05, 30),
		blob(rng, geom.Vec2{X: 1e6, Y: 1e6}, 0.05, 30)...)
	labels := DBSCAN(pts, 0.3, 4)
	if want := bruteDBSCAN(pts, 0.3, 4); !slices.Equal(labels, want) {
		t.Fatalf("grid labels diverge from brute force on spread cloud")
	}
	if labels[0] == Noise || labels[30] == Noise || labels[0] == labels[30] {
		t.Errorf("far-apart blobs mislabelled: %d vs %d", labels[0], labels[30])
	}
}

func BenchmarkDBSCANGrid(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	pts := make([]Point, 800)
	for i := range pts {
		pts[i] = Point{Pos: geom.Vec2{X: rng.Float64() * 10, Y: rng.Float64() * 2}, Weight: 1}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DBSCAN(pts, 0.25, 10)
	}
}

func BenchmarkDBSCANBrute(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	pts := make([]Point, 800)
	for i := range pts {
		pts[i] = Point{Pos: geom.Vec2{X: rng.Float64() * 10, Y: rng.Float64() * 2}, Weight: 1}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bruteDBSCAN(pts, 0.25, 10)
	}
}

// denseBlob is n points scattered uniformly over a square of side eps/2, so
// every pair lies within eps of each other and every point is core.
func denseBlob(n int, eps float64) []Point {
	rng := rand.New(rand.NewSource(11))
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{Pos: geom.Vec2{X: rng.Float64() * eps / 2, Y: rng.Float64() * eps / 2}, Weight: 1}
	}
	return pts
}

// TestDBSCANDenseBlobMatchesTextbook checks the one-cluster extreme: 2,000
// mutually neighbouring points. The labels equal the textbook oracle's, and
// the frontier queues each point once, so the whole call allocates O(n)
// bytes. The oracle's seed list holds n^2 = 4e6 entries (tens of MB).
func TestDBSCANDenseBlobMatchesTextbook(t *testing.T) {
	const eps, minPts = 0.3, 4
	pts := denseBlob(2000, eps)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	labels := DBSCAN(pts, eps, minPts)
	runtime.ReadMemStats(&after)
	if want := bruteDBSCAN(pts, eps, minPts); !slices.Equal(labels, want) {
		t.Fatalf("dense-blob labels diverge from the textbook oracle")
	}
	for i, l := range labels {
		if l != 0 {
			t.Fatalf("point %d labelled %d, want 0", i, l)
		}
	}
	if b := after.TotalAlloc - before.TotalAlloc; b > 1<<20 {
		t.Errorf("DBSCAN of a 2000-point dense blob allocated %d bytes, want < 1 MB", b)
	}
}

// TestDBSCANCoreChainMatchesTextbook checks a chain of core points: each
// point's neighbourhood is itself and the two beside it, so the cluster
// grows one frontier entry at a time across the whole chain.
func TestDBSCANCoreChainMatchesTextbook(t *testing.T) {
	pts := make([]Point, 300)
	for i := range pts {
		// Shuffled positions along the line, so first-seen order differs
		// from index order.
		x := float64((i*7)%len(pts)) * 0.1
		pts[i] = Point{Pos: geom.Vec2{X: x, Y: 0.01 * float64(i%3)}, Weight: 1}
	}
	labels := DBSCAN(pts, 0.15, 3)
	if want := bruteDBSCAN(pts, 0.15, 3); !slices.Equal(labels, want) {
		t.Fatalf("chain labels %v diverge from the textbook oracle %v", labels, want)
	}
	for i, l := range labels {
		if l != 0 {
			t.Fatalf("chain point %d labelled %d, want one cluster", i, l)
		}
	}
}

// TestDBSCANSharedBorderMatchesTextbook checks two clusters that share
// border points: points within eps of both clusters' cores but with too few
// neighbours to be core themselves belong to the cluster found first.
func TestDBSCANSharedBorderMatchesTextbook(t *testing.T) {
	var pts []Point
	line := func(x0 float64, n int) {
		for i := 0; i < n; i++ {
			pts = append(pts, Point{Pos: geom.Vec2{X: x0 + 0.1*float64(i)}, Weight: 1})
		}
	}
	// Border points first, so the outer loop meets them as noise before
	// either cluster claims them; then cluster A on [0, 0.9], cluster B on
	// [1.5, 2.4]. The borders at 1.2 sit 0.3 from both clusters' end cores
	// and see 4 points, one short of core.
	pts = append(pts,
		Point{Pos: geom.Vec2{X: 1.2, Y: 0.05}, Weight: 1},
		Point{Pos: geom.Vec2{X: 1.2, Y: -0.05}, Weight: 1})
	line(0, 10)
	line(1.5, 10)
	const eps, minPts = 0.31, 5
	labels := DBSCAN(pts, eps, minPts)
	if want := bruteDBSCAN(pts, eps, minPts); !slices.Equal(labels, want) {
		t.Fatalf("labels %v diverge from the textbook oracle %v", labels, want)
	}
	a, b := labels[2], labels[12]
	if a != 0 || b != 1 {
		t.Fatalf("cluster labels = %d, %d, want 0, 1", a, b)
	}
	for i := 0; i < 2; i++ {
		if labels[i] != a {
			t.Errorf("shared border point %d labelled %d, want the first cluster's %d", i, labels[i], a)
		}
	}
}

// BenchmarkDBSCANDense clusters the dense blob: one cluster whose every
// point neighbours every other, the case where the textbook seed list grows
// quadratically.
func BenchmarkDBSCANDense(b *testing.B) {
	pts := denseBlob(2000, 0.3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DBSCAN(pts, 0.3, 4)
	}
}

func TestSummarizeCentroidAndExtent(t *testing.T) {
	pts := []Point{
		{Pos: geom.Vec2{X: -1, Y: 0}, Weight: 1},
		{Pos: geom.Vec2{X: 1, Y: 0}, Weight: 1},
		{Pos: geom.Vec2{X: 0, Y: 1}, Weight: 1},
		{Pos: geom.Vec2{X: 0, Y: -1}, Weight: 1},
		{Pos: geom.Vec2{X: 50, Y: 50}, Weight: 1}, // noise
	}
	labels := []int{0, 0, 0, 0, Noise}
	stats := Summarize(pts, labels, 0.01)
	if len(stats) != 1 {
		t.Fatalf("got %d clusters, want 1", len(stats))
	}
	s := stats[0]
	if s.Count != 4 {
		t.Errorf("Count = %d, want 4", s.Count)
	}
	if math.Abs(s.Centroid.X) > 1e-12 || math.Abs(s.Centroid.Y) > 1e-12 {
		t.Errorf("Centroid = %v, want origin", s.Centroid)
	}
	if math.Abs(s.Extent-1) > 1e-12 {
		t.Errorf("Extent = %g, want 1", s.Extent)
	}
	if s.TotalWeight != 4 {
		t.Errorf("TotalWeight = %g, want 4", s.TotalWeight)
	}
	wantDensity := 4 / math.Pi
	if math.Abs(s.Density-wantDensity) > 1e-9 {
		t.Errorf("Density = %g, want %g", s.Density, wantDensity)
	}
}

func TestSummarizeWeighted(t *testing.T) {
	// A heavy point pulls the centroid toward it.
	pts := []Point{
		{Pos: geom.Vec2{X: 0}, Weight: 3},
		{Pos: geom.Vec2{X: 4}, Weight: 1},
	}
	labels := []int{0, 0}
	s := Summarize(pts, labels, 0.01)[0]
	if math.Abs(s.Centroid.X-1) > 1e-12 {
		t.Errorf("weighted centroid X = %g, want 1", s.Centroid.X)
	}
}

func TestSummarizeZeroWeight(t *testing.T) {
	pts := []Point{{Pos: geom.Vec2{X: 1}, Weight: 0}, {Pos: geom.Vec2{X: 1}, Weight: 0}}
	s := Summarize(pts, []int{0, 0}, 0.01)
	if len(s) != 1 || s[0].Count != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if math.IsNaN(s[0].Centroid.X) {
		t.Error("zero-weight cluster produced NaN centroid")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil, nil, 0.01); s != nil {
		t.Errorf("Summarize(nil) = %v", s)
	}
	labels := []int{Noise, Noise}
	pts := []Point{{}, {}}
	if s := Summarize(pts, labels, 0.01); s != nil {
		t.Errorf("all-noise Summarize = %v", s)
	}
}

func TestSummarizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	Summarize([]Point{{}}, []int{0, 0}, 0.01)
}
