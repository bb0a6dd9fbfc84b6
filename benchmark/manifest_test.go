package benchmark

import (
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesCode checks BENCHMARK.json against the limits its
// readers enforce and against the code: the workloads it declares are the
// ones the benchmark runs, and every metric the code emits is declared with
// the same unit, and vice versa.
func TestManifestMatchesCode(t *testing.T) {
	m, err := LoadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Command) == 0 || strings.Join(m.Command, " ") != "bash benchmark/run.sh" {
		t.Errorf("command %q, want bash benchmark/run.sh", m.Command)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths %q, want [benchmark]", m.Paths)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", m.RunSeconds)
	}

	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %s", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q used twice", kind, name)
		}
		seen[name] = true
	}

	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	code := Workloads()
	if len(code) != len(m.Workloads) {
		t.Errorf("manifest declares %d workloads, the code runs %d", len(m.Workloads), len(code))
	}
	for i, w := range m.Workloads {
		checkName("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
		if i < len(code) && code[i].Name != w.Name {
			t.Errorf("workload %d is %q in the manifest, %q in the code", i, w.Name, code[i].Name)
		}
	}

	checkSpecs := func(kind string, specs []MetricSpec, limit int, units map[string]string, bounded bool) {
		if len(specs) < 1 || len(specs) > limit {
			t.Errorf("%d %s metrics, want 1..%d", len(specs), kind, limit)
		}
		declared := map[string]bool{}
		for _, s := range specs {
			checkName(kind, s.Name)
			declared[s.Name] = true
			if !unitRE.MatchString(s.Unit) {
				t.Errorf("%s: unit %q does not match %s", s.Name, s.Unit, unitRE)
			}
			if s.Better != "lower" && s.Better != "higher" {
				t.Errorf("%s: better %q, want lower or higher", s.Name, s.Better)
			}
			if bounded && (s.Bound <= 0 || s.Bound > 0.25) {
				t.Errorf("%s: bound %g outside (0, 0.25]", s.Name, s.Bound)
			}
			if !bounded && s.Bound != 0 {
				t.Errorf("%s: a %s metric has no bound", s.Name, kind)
			}
			if u, ok := units[s.Name]; !ok {
				t.Errorf("%s metric %s is declared but never emitted", kind, s.Name)
			} else if u != s.Unit {
				t.Errorf("%s: declared unit %q, emitted %q", s.Name, s.Unit, u)
			}
		}
		for name := range units {
			if !declared[name] {
				t.Errorf("%s metric %s is emitted but not declared", kind, name)
			}
		}
	}
	checkSpecs("end-to-end", m.EndToEnd, 16, EndToEndUnits, true)
	checkSpecs("per-layer", m.PerLayer, 128, PerLayerUnits, false)

	setup, ok := m.Spec(MSetup)
	if !ok || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatalf("setup_s must be declared in s, lower is better: %+v", setup)
	}
	for _, s := range m.EndToEnd {
		if s.Bound > setup.Bound {
			t.Errorf("%s has bound %g above setup_s's %g; set-up time gets the largest", s.Name, s.Bound, setup.Bound)
		}
	}
}
