package benchmark

import "testing"

// around returns n values center*(1±k*step) for k = 1, 1, 2, 2, ...,
// alternating above and below center, so the set has a known spread.
func around(center, step float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		k := float64(i/2 + 1)
		if i%2 == 1 {
			k = -k
		}
		out[i] = center * (1 + k*step)
	}
	return out
}

func TestJudge(t *testing.T) {
	latency := MetricSpec{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	rate := MetricSpec{Name: "throughput_rps", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		name           string
		spec           MetricSpec
		parent, change []float64
		want           string
	}{
		{"faster on every pair", latency, around(100, 0.01, 10), around(90, 0.01, 10), Improved},
		{"more throughput on every pair", rate, around(100, 0.01, 10), around(110, 0.01, 10), Improved},
		{"same distribution", latency, around(100, 0.01, 10), around(100.5, 0.01, 10), Unchanged},
		{"within the bound but slower", latency, around(100, 0.01, 10), around(105, 0.01, 10), Unchanged},
		{"slower past the bound", latency, around(100, 0.01, 10), around(112, 0.01, 10), Worse},
		{"less throughput past the bound", rate, around(100, 0.01, 10), around(85, 0.01, 10), Worse},
		{"too few pairs for a gain", latency, around(100, 0.01, 9), around(90, 0.01, 9), Unchanged},
		{"gain inside the parent's spread", latency, around(100, 0.01, 10), around(97, 0.01, 10), Unchanged},
		{"parent spread wider than the bound", latency, around(100, 0.06, 10), around(99, 0.06, 10), Unresolved},
		{"wide spread but every change run better", latency, around(100, 0.06, 6), around(60, 0.01, 6), Unchanged},
		{"no runs", latency, nil, nil, Unresolved},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, got := Judge(tc.spec, tc.parent, tc.change); got != tc.want {
				t.Errorf("verdict %s, want %s (parent spread %.3f)", got, tc.want, Spread(tc.parent))
			}
		})
	}
}

func TestJudgeCountsWinsWithoutTies(t *testing.T) {
	spec := MetricSpec{Better: "lower", Bound: 0.1}
	wins, pairs, _ := Judge(spec, []float64{10, 10, 10, 10}, []float64{9, 10, 11, 9})
	if wins != 2 || pairs != 4 {
		t.Errorf("wins/pairs = %d/%d, want 2/4", wins, pairs)
	}
}

func TestCompareAddsFailRatio(t *testing.T) {
	m := &Manifest{EndToEnd: []MetricSpec{{Name: MOpP50, Unit: "ms", Better: "lower", Bound: 0.1}}}
	run := func(ms float64, failed int) *Results {
		return &Results{Reports: []*Report{{
			Workload: "w", Attempted: 100, Failed: failed,
			Metrics: map[string]Stat{MOpP50: {Value: ms, Unit: "ms"}},
		}}}
	}
	var parent, change []*Results
	for i := 0; i < 10; i++ {
		parent = append(parent, run(100+float64(i%3), 0))
		change = append(change, run(100+float64(i%3), i/9))
	}
	rows := Compare(m, parent, change)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want op_p50_ms and fail_ratio", len(rows))
	}
	got := map[string]string{}
	for _, r := range rows {
		got[r.Spec.Name] = r.Verdict
	}
	if got[MOpP50] != Unchanged || got["fail_ratio"] != Unchanged {
		t.Errorf("verdicts %v: one failure in ten runs leaves the medians equal", got)
	}
	for i := range change {
		change[i] = run(100, 1)
	}
	for _, r := range Compare(m, parent, change) {
		if r.Spec.Name == "fail_ratio" && r.Verdict != Worse {
			t.Errorf("fail_ratio verdict %s, want %s when failures rise", r.Verdict, Worse)
		}
	}
}
