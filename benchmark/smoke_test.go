package benchmark

import (
	"context"
	"strings"
	"testing"
)

// toy shrinks a workload to one operation per caller and round, swaps the
// 32-module shaped tag for an 8-module one (so the smoke test never pays
// the 32-module beam-shaping search) and cuts the sweep to its first two
// grid points, one on each synthesis path.
func toy(w Workload) Workload {
	w.Units = w.Callers
	if w.Modules > 8 {
		w.Modules = 8
	}
	if w.Name == "sweep-grid" {
		w.open = func(_ context.Context, w Workload, e *env) (runner, error) {
			return newGrid(e, w.Modules, gridPoints()[:2]), nil
		}
	}
	return w
}

// onPath reports whether a per-layer metric's layer is on workload w's
// path; every other metric must be reported absent.
func onPath(w Workload, metric string) bool {
	service := strings.HasPrefix(w.Name, "rosd-")
	switch {
	case strings.HasPrefix(metric, "rosd."), strings.HasPrefix(metric, "rosclient."):
		return service
	case metric == "sim.read_ms_p50":
		return !service
	case metric == "sweep.efficiency":
		return w.Name == "sweep-grid"
	case metric == "beamshape.shaped_ms":
		return w.Modules > 0
	}
	return true
}

func TestSmoke(t *testing.T) {
	ctx := context.Background()
	for _, w := range Workloads() {
		w := toy(w)
		t.Run(w.Name, func(t *testing.T) {
			rep, err := Run(ctx, w, Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("correct %v, %d of %d reads failed", rep.Correct, rep.Failed, rep.Attempted)
			}
			if len(rep.Metrics) != len(EndToEndUnits) {
				t.Errorf("%d end-to-end metrics, want %d", len(rep.Metrics), len(EndToEndUnits))
			}
			for name, unit := range EndToEndUnits {
				st, ok := rep.Metrics[name]
				if !ok || st.Unit != unit || !(st.Value > 0) {
					t.Errorf("%s = %+v, want a positive value in %s", name, st, unit)
				}
			}

			tr, err := Run(ctx, w, Options{Seed: 1, Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			if !tr.Correct {
				t.Errorf("traced run: %d of %d reads failed", tr.Failed, tr.Attempted)
			}
			if len(tr.Metrics) != len(PerLayerUnits) {
				t.Errorf("%d per-layer metrics, want %d", len(tr.Metrics), len(PerLayerUnits))
			}
			for name, unit := range PerLayerUnits {
				st, ok := tr.Metrics[name]
				if !ok || st.Unit != unit {
					t.Errorf("%s missing or not in %s: %+v", name, unit, st)
				} else if st.Absent == onPath(w, name) {
					t.Errorf("%s: absent = %v on %s", name, st.Absent, w.Name)
				}
			}
			checkSpans(t, tr.Spans)
		})
	}
}

// checkSpans checks that every span's parent was recorded, belongs to the
// same operation, and encloses it in time.
func checkSpans(t *testing.T, spans []Span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	byID := map[int64]Span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			if s.Op != s.ID {
				t.Errorf("root span %s (%d) names operation %d", s.Name, s.ID, s.Op)
			}
			continue
		}
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			t.Errorf("span %s (%d): parent %d not recorded", s.Name, s.ID, s.Parent)
		case p.Op != s.Op:
			t.Errorf("span %s (%d) in operation %d, its parent in %d", s.Name, s.ID, s.Op, p.Op)
		case s.Start < p.Start || s.Start+s.Dur > p.Start+p.Dur:
			t.Errorf("span %s (%d) is not inside its parent %s", s.Name, s.ID, p.Name)
		}
	}
}

// TestConfigEnvelope reads every configuration of every workload on a few
// seeds and requires each read to decode to the encoded bits, so no
// workload can drift outside the reading envelope (a frame budget that
// decodes wrong, a standoff past the edge). -short skips the 32-module
// canonical tag's beam-shaping search.
func TestConfigEnvelope(t *testing.T) {
	ctx := context.Background()
	for _, w := range Workloads() {
		t.Run(w.Name, func(t *testing.T) {
			if w.Modules > 8 && testing.Short() {
				t.Skip("the 32-module tag's beam-shaping search takes seconds")
			}
			for _, seed := range []int64{1, 2, 3} {
				d, err := w.open(ctx, w, &env{seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				// One operation covers every configuration of the
				// in-process workloads; rosd operations carry 4 reads
				// of consecutive configurations.
				units := int64(1)
				if s, ok := d.(*service); ok {
					units = int64(s.configs / batchReads)
				}
				for u := int64(0); u < units; u++ {
					if res := d.unit(ctx, u, 0); res.fails > 0 {
						t.Errorf("seed %d, operation %d: %d of %d reads decoded wrong", seed, u, res.fails, res.reads)
					}
				}
				d.close()
			}
		})
	}
}
