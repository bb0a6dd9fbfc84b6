package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ros/benchmark"
)

// The last line of a one-workload run is machine-read: exactly these
// four keys, and every metric as a value with its unit.
func TestPrintLineKeys(t *testing.T) {
	rep := &benchmark.Report{Correct: true, Attempted: 10, Metrics: map[string]benchmark.Stat{
		benchmark.MOpP50:  {Value: 12.5, Unit: "ms", Median: 13},
		"sim.read_ms_p50": {Unit: "ms", Absent: true},
	}}
	var buf bytes.Buffer
	if err := printLine(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("not one JSON object: %v\n%s", err, buf.String())
	}
	if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Errorf("keys %v, want correct, attempted, failed, metrics", line)
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if m := metrics[benchmark.MOpP50]; len(m) != 2 || m["value"] != 12.5 || m["unit"] != "ms" {
		t.Errorf("op_p50_ms = %v, want value 12.5 and unit ms only", m)
	}
	if m := metrics["sim.read_ms_p50"]; m["value"] != 0.0 {
		t.Errorf("absent metric = %v, want value 0", m)
	}
}

func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ms float64) string {
		res := benchmark.Results{Reports: []*benchmark.Report{{
			Workload: "read-canonical", Attempted: 100,
			Metrics: map[string]benchmark.Stat{benchmark.MOpP50: {Value: ms, Unit: "ms"}},
		}}}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent := []string{write("p1.json", 15), write("p2.json", 15.2)}
	for _, tc := range []struct {
		name   string
		change []string
		code   int
		want   string
	}{
		{"same speed", []string{write("c1.json", 15.1), write("c2.json", 15)}, 0, benchmark.Unchanged},
		{"much slower", []string{write("s1.json", 20), write("s2.json", 21)}, 1, benchmark.Worse},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			args := append([]string{"compare", "-manifest", "../../../BENCHMARK.json"}, parent...)
			args = append(append(args, "--"), tc.change...)
			if code := run(context.Background(), time.Now(), args, &out); code != tc.code {
				t.Errorf("exit %d, want %d\n%s", code, tc.code, out.String())
			}
			if !strings.Contains(out.String(), "op_p50_ms") || !strings.Contains(out.String(), tc.want) {
				t.Errorf("no %s row for op_p50_ms:\n%s", tc.want, out.String())
			}
		})
	}
}
