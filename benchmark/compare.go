package benchmark

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// Results is one results.json (or layers.json): the reports of one
// invocation, one per workload it ran.
type Results struct {
	Seed    int64     `json:"seed"`
	Seconds float64   `json:"seconds"`
	Trace   bool      `json:"trace"`
	Reports []*Report `json:"reports"`
}

// LoadResults reads a results.json file.
func LoadResults(path string) (*Results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchmark: read results: %w", err)
	}
	var r Results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("benchmark: decode %s: %w", path, err)
	}
	return &r, nil
}

// Verdicts of a comparison.
const (
	Improved   = "improved"
	Unchanged  = "unchanged"
	Worse      = "worse"
	Unresolved = "unresolved"
)

// MinPairs is the fewest parent/change pairs a gain can rest on.
const MinPairs = 10

// failSpec is the implicit metric every comparison adds: the share of reads
// that failed, which may not increase at all.
var failSpec = MetricSpec{Name: "fail_ratio", Unit: "ratio", Better: "lower"}

// Row is the comparison of one metric on one workload.
type Row struct {
	Workload string
	Spec     MetricSpec
	// Parent and Change hold one value per run, in run order; run i of
	// each side forms pair i.
	Parent, Change []float64
	Wins, Pairs    int
	Verdict        string
}

// Judge applies the benchmark's rule to one metric. A change is worse when
// its median is worse than the parent's by more than the bound (any amount
// for a zero bound). It is improved when at least MinPairs pairs were run,
// it wins at least nine tenths of them (ties count for neither side), and
// its median is better by more than the parent's interquartile range. When
// neither holds, a parent spread wider than the bound leaves the metric
// unresolved, unless every change run is better than every parent run.
func Judge(spec MetricSpec, parent, change []float64) (wins, pairs int, verdict string) {
	pairs = min(len(parent), len(change))
	if pairs == 0 {
		return 0, 0, Unresolved
	}
	sign := 1.0 // gain = sign * (change - parent)
	if spec.Better == "lower" {
		sign = -1
	}
	for i := 0; i < pairs; i++ {
		if sign*(change[i]-parent[i]) > 0 {
			wins++
		}
	}
	q1, pm, q3 := Quartiles(parent)
	gain := sign * (Median(change) - pm)
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if sign*(c-p) <= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case gain < -spec.Bound*math.Abs(pm):
		return wins, pairs, Worse
	case pairs >= MinPairs && wins*10 >= 9*pairs && gain > q3-q1:
		return wins, pairs, Improved
	case Spread(parent) > spec.Bound && !allBetter:
		return wins, pairs, Unresolved
	}
	return wins, pairs, Unchanged
}

// Compare judges every end-to-end metric of the manifest, plus the fail
// ratio, on every workload present in both sides' runs. Runs pair up by
// position.
func Compare(m *Manifest, parent, change []*Results) []Row {
	series := func(runs []*Results, workload string, metric string) []float64 {
		var out []float64
		for _, run := range runs {
			for _, rep := range run.Reports {
				if rep.Workload != workload {
					continue
				}
				if metric == failSpec.Name {
					out = append(out, rep.FailRatio())
				} else if st, ok := rep.Metrics[metric]; ok && !st.Absent {
					out = append(out, st.Value)
				}
			}
		}
		return out
	}
	seen := map[string]bool{}
	var workloads []string
	for _, run := range parent {
		for _, rep := range run.Reports {
			if !seen[rep.Workload] {
				seen[rep.Workload] = true
				workloads = append(workloads, rep.Workload)
			}
		}
	}
	sort.Strings(workloads)
	specs := append(append([]MetricSpec(nil), m.EndToEnd...), failSpec)
	var rows []Row
	for _, w := range workloads {
		for _, spec := range specs {
			p, c := series(parent, w, spec.Name), series(change, w, spec.Name)
			if len(c) == 0 {
				continue
			}
			wins, pairs, v := Judge(spec, p, c)
			rows = append(rows, Row{Workload: w, Spec: spec, Parent: p, Change: c, Wins: wins, Pairs: pairs, Verdict: v})
		}
	}
	return rows
}
