package experiments

// Golden tables: every generator of Registry() rendered in paper order and
// checked in under testdata/. A refactor that moves any cell of any table
// fails here and shows up in review as a diff of the file. Regenerate it
// deliberately with
//
//	go test -run TestGoldenTables -update-golden ./internal/experiments
//
// (or `make golden`) and explain every changed row in the commit.

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_tables.txt from the current code")

const goldenTablesPath = "testdata/golden_tables.txt"

func TestGoldenTables(t *testing.T) {
	var b strings.Builder
	for _, g := range Registry() {
		b.WriteString(g.Run(context.Background()).String())
		b.WriteByte('\n')
	}
	got := b.String()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenTablesPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTablesPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenTablesPath)
		return
	}
	raw, err := os.ReadFile(goldenTablesPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	want := strings.Split(string(raw), "\n")
	lines := strings.Split(got, "\n")
	if len(want) != len(lines) {
		t.Errorf("golden tables have %d lines, the registry rendered %d (regenerate with -update-golden)", len(want), len(lines))
	}
	for i := 0; i < len(want) && i < len(lines); i++ {
		if lines[i] != want[i] {
			t.Errorf("line %d changed:\n  want %s\n  got  %s", i+1, want[i], lines[i])
		}
	}
}
