package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestCounterVecBasics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("ros_reads_by_outcome_total", "reads by outcome", "outcome")
	v.With("ok").Add(3)
	v.With("partial").Inc()
	v.With("ok").Inc()
	if got := v.With("ok").Value(); got != 4 {
		t.Errorf(`With("ok") = %d, want 4`, got)
	}
	if v.With("ok") != v.With("ok") {
		t.Error("With is not get-or-create")
	}
	if r.CounterVec("ros_reads_by_outcome_total", "ignored", "ignored") != v {
		t.Error("CounterVec is not get-or-create")
	}

	var snaps []CounterSnap
	for _, c := range r.Snapshot().Counters {
		if c.Name == "ros_reads_by_outcome_total" {
			snaps = append(snaps, c)
		}
	}
	if len(snaps) != 2 {
		t.Fatalf("snapshot has %d children, want 2: %+v", len(snaps), snaps)
	}
	// Sorted by label values: ok before partial.
	if snaps[0].Labels["outcome"] != "ok" || snaps[0].Value != 4 {
		t.Errorf("first child = %+v, want outcome=ok value=4", snaps[0])
	}
	if snaps[1].Labels["outcome"] != "partial" || snaps[1].Value != 1 {
		t.Errorf("second child = %+v, want outcome=partial value=1", snaps[1])
	}
}

func TestGaugeVec(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVecCapacity("ros_stage_ms", "per-stage gauge", 0, "stage")
	v.With("synthesize").Set(8.5)
	v.With("decode").Set(0.25)
	var got []string
	for _, g := range r.Snapshot().Gauges {
		got = append(got, fmt.Sprintf("%s=%g", g.Labels["stage"], g.Value))
	}
	want := []string{"decode=0.25", "synthesize=8.5"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("gauge children = %v, want %v", got, want)
	}
}

func TestHistogramVecSharedBounds(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("ros_stage_seconds", "per-stage seconds", []float64{0.01, 0.1}, 0, "stage")
	v.With("synthesize").Observe(0.05)
	v.With("cluster").Observe(0.005)
	v.With("synthesize").Observe(0.5)
	for _, h := range r.Snapshot().Histograms {
		if h.Name != "ros_stage_seconds" {
			continue
		}
		if len(h.Buckets) != 3 {
			t.Fatalf("child %v has %d buckets, want 3", h.Labels, len(h.Buckets))
		}
		switch h.Labels["stage"] {
		case "synthesize":
			if h.Count != 2 || h.Sum != 0.55 {
				t.Errorf("synthesize child = count %d sum %g", h.Count, h.Sum)
			}
		case "cluster":
			if h.Count != 1 {
				t.Errorf("cluster child count = %d", h.Count)
			}
		}
	}
}

// TestVecCardinalityCap: past MaxLabelSets distinct labelsets a vector stops
// allocating, routes observations to an unexported overflow child, and counts
// them on obs_dropped_labelsets_total.
func TestVecCardinalityCap(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("ros_capped_total", "cap test", "tenant")
	for i := 0; i < MaxLabelSets+10; i++ {
		v.With(fmt.Sprintf("tenant-%03d", i)).Inc()
	}
	snap := r.Snapshot()
	children, dropped := 0, int64(-1)
	for _, c := range snap.Counters {
		switch {
		case c.Name == "ros_capped_total":
			children++
		case c.Name == DroppedLabelSetsMetric:
			dropped = c.Value
		}
	}
	if children != MaxLabelSets {
		t.Errorf("resident children = %d, want %d", children, MaxLabelSets)
	}
	if dropped != 10 {
		t.Errorf("%s = %d, want 10", DroppedLabelSetsMetric, dropped)
	}
	// An already-rejected labelset keeps incrementing the self-metric but
	// still hands back a usable (unexported) counter.
	c := v.With("tenant-200")
	c.Inc()
	if c == nil {
		t.Fatal("overflow child is nil")
	}
}

// TestCounterVecCapacityAndDelete: an explicit cap replaces MaxLabelSets,
// and Delete frees a labelset's slot and drops it from exposition.
func TestCounterVecCapacityAndDelete(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVecCapacity("ros_sized_total", "capacity test", 2, "tenant")
	v.With("a").Inc()
	v.With("b").Inc()
	v.With("c").Inc() // past the cap: overflow
	count := func() (children int, dropped int64) {
		for _, c := range r.Snapshot().Counters {
			switch c.Name {
			case "ros_sized_total":
				children++
			case DroppedLabelSetsMetric:
				dropped = c.Value
			}
		}
		return children, dropped
	}
	if n, d := count(); n != 2 || d != 1 {
		t.Fatalf("children %d, dropped %d; want 2 and 1", n, d)
	}
	if !v.Delete("a") || v.Delete("a") {
		t.Fatal("Delete did not report residency")
	}
	v.With("c").Inc() // the freed slot takes c
	if n, d := count(); n != 2 || d != 1 {
		t.Errorf("after Delete: children %d, dropped %d; want 2 and 1", n, d)
	}
	if got := v.With("c").Value(); got != 1 {
		t.Errorf("c = %d after taking the freed slot, want 1", got)
	}
}

func TestVecLabelArityPanics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("ros_two_labels_total", "", "stage", "outcome")
	defer func() {
		if recover() == nil {
			t.Error("wrong label arity did not panic")
		}
	}()
	v.With("only-one")
}

func TestVecNameCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("name", "", "l")
	defer func() {
		if recover() == nil {
			t.Error("registering a counter over a counter vector did not panic")
		}
	}()
	r.Counter("name", "")
}

// TestVecConcurrent exercises the copy-on-write index under -race: creation
// races resolve to one child per labelset and no observation is lost.
func TestVecConcurrent(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("ros_concurrent_total", "", "k")
	var wg sync.WaitGroup
	const workers, iters = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				v.With(fmt.Sprintf("k%d", i%4)).Inc()
			}
		}()
	}
	wg.Wait()
	total := int64(0)
	for _, c := range r.Snapshot().Counters {
		if c.Name == "ros_concurrent_total" {
			total += c.Value
		}
	}
	if total != workers*iters {
		t.Errorf("summed children = %d, want %d", total, workers*iters)
	}
}

func TestLabeledPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("ros_outcomes_total", "labeled", "outcome", "workers")
	v.With("ok", "4").Add(2)
	v.With("partial", "1").Inc()
	h := r.HistogramVec("ros_labeled_seconds", "labeled hist", []float64{1}, 0, "stage")
	h.With("decode").Observe(0.5)
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`ros_outcomes_total{outcome="ok",workers="4"} 2`,
		`ros_outcomes_total{outcome="partial",workers="1"} 1`,
		`ros_labeled_seconds_bucket{stage="decode",le="1"} 1`,
		`ros_labeled_seconds_bucket{stage="decode",le="+Inf"} 1`,
		`ros_labeled_seconds_sum{stage="decode"} 0.5`,
		`ros_labeled_seconds_count{stage="decode"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// One header per family, not per child.
	if n := strings.Count(out, "# TYPE ros_outcomes_total counter"); n != 1 {
		t.Errorf("family header appears %d times, want 1", n)
	}
}

func TestBucketWorkers(t *testing.T) {
	cases := map[int]string{0: "1", 1: "1", 2: "2", 3: "4", 4: "4", 5: "8", 8: "8", 9: "16+", 64: "16+"}
	for n, want := range cases {
		if got := BucketWorkers(n); got != want {
			t.Errorf("BucketWorkers(%d) = %q, want %q", n, got, want)
		}
	}
}
