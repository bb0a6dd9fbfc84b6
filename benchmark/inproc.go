package benchmark

import (
	"context"
	"time"

	"ros"
	"ros/internal/beamshape"
	"ros/internal/em"
	"ros/internal/radar"
	"ros/internal/sim"
	"ros/internal/sweep"
)

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// timeShaped times a direct beam-shaping synthesis, the cold-start cost a
// shaped tag's first use pays (later calls hit the synthesis cache).
func timeShaped(modules int) float64 {
	start := time.Now()
	beamshape.Shaped(modules)
	return ms(time.Since(start))
}

// canonicalBits is the paper's canonical tag code.
const canonicalBits = "1111"

// readCanonical is the library user's single-core read: the detect kernels
// do almost all the work, and set-up carries the beam-shaping search a
// shaped tag's first use pays.
func readCanonical() Workload {
	return Workload{
		Name:    "read-canonical",
		Units:   25,
		Callers: 1,
		Modules: 32,
		open:    openCanonical,
	}
}

// canonical reads the canonical tag through the public library API: a
// beam-shaped "1111" tag, 3 m standoff, the default 280 frames, one worker.
type canonical struct {
	env    *env
	reader *ros.Reader
	tag    *ros.Tag
}

func openCanonical(_ context.Context, w Workload, e *env) (runner, error) {
	tag, err := ros.NewTag(canonicalBits, ros.WithStackModules(w.Modules))
	if err != nil {
		return nil, err
	}
	return &canonical{env: e, reader: ros.NewReader(), tag: tag}, nil
}

func (c *canonical) unit(ctx context.Context, u int64, lane int) unitResult {
	start := time.Now()
	r, err := c.reader.ReadContext(ctx, c.tag, ros.ReadOptions{Standoff: 3, Seed: c.env.seed + u, Workers: 1})
	end := time.Now()
	if rec := c.env.rec; rec.active() {
		id := rec.newID()
		rec.span(Span{ID: id, Op: id, Name: "ros.Reader.Read", Lane: lane}, start, end)
		if r != nil {
			rec.sample("sim.read_ms", ms(r.Stats.Wall))
		}
	}
	res := unitResult{lat: []float64{ms(end.Sub(start))}, reads: 1}
	if err != nil || r.Bits != canonicalBits {
		res.fails = 1
	}
	return res
}

func (c *canonical) layers(l layerSet, t *traceData) {
	setPercentile(l, "sim.read_ms_p50", t.samples["sim.read_ms"], 0.5)
}

func (c *canonical) close() {}

// gridBits is the sweep's tag code; gridWorkers is the sweep pool size (the
// core count the benchmark is sized for).
const (
	gridBits    = "1011"
	gridWorkers = 2
)

// gridPoint is one configuration of the Sec 7 style sweep; index is its
// position in the grid, from which its per-pass seed derives.
type gridPoint struct {
	index    int
	standoff float64
	fog      em.FogLevel
	adcBits  int
}

// gridPoints is standoff x fog x ADC quantization, 16 points. Roadside
// clutter is deliberately not an axis: with clutter, about one pass in a
// thousand at these standoffs loses or misreads the tag, so a run of a few
// thousand passes would rarely be all-correct.
func gridPoints() []gridPoint {
	var pts []gridPoint
	for _, st := range []float64{2, 2.25, 2.5, 2.75} {
		for _, fog := range []em.FogLevel{em.FogClear, em.FogHeavy} {
			for _, adc := range []int{0, 12} {
				pts = append(pts, gridPoint{index: len(pts), standoff: st, fog: fog, adcBits: adc})
			}
		}
	}
	return pts
}

// sweepGrid is offline paper-reproduction throughput: 2-core scaling of the
// sweep pool over the process-wide default caches, with half of the grid on
// the quantized synthesis path.
func sweepGrid() Workload {
	return Workload{
		Name:    "sweep-grid",
		Units:   2,
		Callers: 1,
		Modules: 8,
		open: func(_ context.Context, w Workload, e *env) (runner, error) {
			return newGrid(e, w.Modules, gridPoints()), nil
		},
	}
}

// grid runs one 16-point sweep per operation through sweep.MapCtx, each
// point a sim.RunContext pass of the 8-module shaped "1011" tag, the path
// every Sec 7 generator takes.
type grid struct {
	env     *env
	modules int
	points  []gridPoint
	radars  map[int]*radar.Config
	// lanes hands each concurrent pass a trace lane.
	lanes chan int
}

func newGrid(e *env, modules int, points []gridPoint) *grid {
	g := &grid{env: e, modules: modules, points: points, radars: map[int]*radar.Config{},
		lanes: make(chan int, gridWorkers)}
	for _, bits := range []int{0, 12} {
		rc := radar.TI1443()
		rc.ADCBits = bits
		g.radars[bits] = &rc
	}
	for i := 1; i <= gridWorkers; i++ {
		g.lanes <- i
	}
	return g
}

type passResult struct {
	ms float64
	ok bool
}

func (g *grid) unit(ctx context.Context, u int64, lane int) unitResult {
	rec := g.env.rec
	var op int64
	if rec.active() {
		op = rec.newID()
	}
	gridSeed := g.env.seed + u
	start := time.Now()
	out, _, _ := sweep.MapCtx(ctx, g.points, gridWorkers, func(ctx context.Context, p gridPoint) (passResult, error) {
		return g.pass(ctx, p, gridSeed, op), nil
	})
	end := time.Now()
	if op != 0 {
		rec.span(Span{ID: op, Op: op, Name: "sweep.MapCtx", Lane: lane}, start, end)
	}
	res := unitResult{reads: len(g.points)}
	for _, p := range out {
		res.lat = append(res.lat, p.ms)
		if !p.ok {
			res.fails++
		}
	}
	return res
}

// pass runs one grid point. Point seeds derive from the grid seed and the
// point's index the way the sweep pool derives per-item streams.
func (g *grid) pass(ctx context.Context, p gridPoint, gridSeed, op int64) passResult {
	cfg := sim.DriveBy{
		Bits:         gridBits,
		StackModules: g.modules,
		BeamShaped:   true,
		Standoff:     p.standoff,
		Fog:          p.fog,
		Radar:        g.radars[p.adcBits],
		Workers:      1,
		Seed:         sweep.SubSeed(gridSeed, p.index),
	}
	lane := <-g.lanes
	defer func() { g.lanes <- lane }()
	start := time.Now()
	out, err := sim.RunContext(ctx, cfg)
	end := time.Now()
	if rec := g.env.rec; op != 0 {
		rec.span(Span{ID: rec.newID(), Parent: op, Op: op, Name: "sim.RunContext", Lane: lane}, start, end)
		if out != nil {
			rec.sample("sim.read_ms", float64(out.Stats.WallNS)/1e6)
		}
	}
	ok := err == nil && out.Bits == gridBits
	if out != nil {
		if out.Detection != nil {
			out.Detection.Span = nil
		}
		out.Span.Release()
	}
	return passResult{ms: ms(end.Sub(start)), ok: ok}
}

func (g *grid) layers(l layerSet, t *traceData) {
	setPercentile(l, "sim.read_ms_p50", t.samples["sim.read_ms"], 0.5)
	passes, grids := 0.0, 0.0
	for _, s := range t.spans {
		switch s.Name {
		case "sim.RunContext":
			passes += s.Dur
		case "sweep.MapCtx":
			grids += s.Dur
		}
	}
	l.ratio("sweep.efficiency", passes, true, grids*gridWorkers, true)
}

func (g *grid) close() {}
