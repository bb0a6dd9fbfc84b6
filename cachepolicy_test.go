package ros

// Cache-ownership gate: memoized state lives in resource handles
// (dsp.PlanSet, radar.Session, scene.ResponseCache) composed into an
// engine.Engine, and callers without an Engine resolve to engine.Default().
// This test walks every non-test source file in the module and fails on any
// package-level cache declaration outside the allowlist below, so a second
// cache owner cannot creep back in.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// cacheAllowlist names the package-level cache declarations allowed to
// exist, keyed by file (every declaration in it) or by "file:var".
var cacheAllowlist = map[string]bool{
	// The process-wide Engine behind engine.Default(): the one owner of
	// memoized state for callers that pass no Engine.
	"internal/engine/engine.go:defaultEngine": true,
	// The CountedMap implementation itself.
	"internal/obs/cache.go": true,
	// beamshape.Shaped builds the paper's 8/16/32-module stacks from the
	// checked-in generated phase table (phases_gen.go) and memoizes the
	// DE-GA search (seconds per size) only for sizes outside it; the memo
	// also keeps one shared stack per size. The result depends on the
	// module count alone, never on a radar config, so moved into evictable
	// Engines it would re-run once per rosd engine build.
	"internal/beamshape/shape.go": true,
}

// cachePattern matches the constructors and types that hold memoized cache
// state. sync.Pool is deliberately absent: buffer pools recycle scratch
// memory without retaining entries, so they are not caches under this
// policy.
var cachePattern = regexp.MustCompile(
	`sync\.Map|NewCountedMap|NewPlanSet|NewSession|NewResponseCache|\bengine\.New\(`)

// bareNew matches an unqualified New( call: engine.New as package engine
// itself spells it.
var bareNew = regexp.MustCompile(`(^|[^.\w])New\(`)

// mapMemo and memoGuard recognize a hand-rolled memo: a package-level map
// in a file that also declares a package-level sync.Once or mutex.
var (
	mapMemo   = regexp.MustCompile(`map\[`)
	memoGuard = regexp.MustCompile(`sync\.(Once|Mutex|RWMutex)\b`)
)

// cacheViolations parses one source file and returns a description of every
// package-level cache declaration in it that the allowlist does not cover.
func cacheViolations(fset *token.FileSet, path string, src []byte) ([]string, error) {
	f, err := parser.ParseFile(fset, path, src, 0)
	if err != nil {
		return nil, err
	}
	type spec struct {
		names []string
		line  int
		text  string
	}
	var specs []spec
	guarded := false
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, s := range gd.Specs {
			vs := s.(*ast.ValueSpec)
			sp := spec{line: fset.Position(vs.Pos()).Line,
				text: string(src[fset.Position(vs.Pos()).Offset:fset.Position(vs.End()).Offset])}
			for _, n := range vs.Names {
				sp.names = append(sp.names, n.Name)
			}
			guarded = guarded || memoGuard.MatchString(sp.text)
			specs = append(specs, sp)
		}
	}
	file := filepath.ToSlash(path)
	if cacheAllowlist[file] {
		return nil, nil
	}
	var out []string
	for _, sp := range specs {
		form := cachePattern.FindString(sp.text)
		switch {
		case form != "":
		case f.Name.Name == "engine" && bareNew.MatchString(sp.text):
			form = "engine.New"
		case guarded && mapMemo.MatchString(sp.text):
			form = "map memo guarded by sync.Once/Mutex"
		default:
			continue
		}
		if len(sp.names) == 1 && cacheAllowlist[file+":"+sp.names[0]] {
			continue
		}
		out = append(out, fmt.Sprintf("%s:%d: package-level cache %s (%s)",
			file, sp.line, strings.Join(sp.names, ", "), form))
	}
	return out, nil
}

func TestNoPackageLevelCachesOutsideShims(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if strings.HasPrefix(name, ".") && name != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		found, err := cacheViolations(fset, path, src)
		for _, v := range found {
			t.Errorf("%s; own it through an Engine instead", v)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCacheGateFires feeds the gate one synthetic source per forbidden form
// and checks each is caught, and that the allowlist and the non-cache forms
// pass.
func TestCacheGateFires(t *testing.T) {
	forbidden := map[string]string{
		"sync.Map":         "var m sync.Map",
		"CountedMap":       "var m = obs.NewCountedMap(g)",
		"PlanSet":          "var s = dsp.NewPlanSet(gauge)",
		"Session":          "var s = radar.NewSession(plans, gauge)",
		"ResponseCache":    "var c = scene.NewResponseCache(g, 0)",
		"engine.New":       `var e = engine.New("x")`,
		"mutex-guarded":    "var (\n\tmu   sync.Mutex\n\tmemo = map[int]int{}\n)",
		"once-guarded":     "var once = map[int]*sync.Once{}",
		"rwmutex-separate": "var mu sync.RWMutex\n\nvar memo map[string][]float64",
	}
	fset := token.NewFileSet()
	for name, decl := range forbidden {
		found, err := cacheViolations(fset, "internal/x/x.go", []byte("package x\n\n"+decl+"\n"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(found) == 0 {
			t.Errorf("%s: gate missed %q", name, decl)
		}
	}
	if found, _ := cacheViolations(fset, "internal/engine/engine.go",
		[]byte("package engine\n\nvar other = New(\"x\")\n")); len(found) != 1 {
		t.Errorf("gate missed an unlisted engine.New inside package engine: %v", found)
	}

	allowed := map[string]string{
		"internal/x/x.go":             "package x\n\nvar pool sync.Pool\nvar units = map[string]string{}\nvar errX = errors.New(\"x\")\n",
		"internal/engine/engine.go":   "package engine\n\nvar defaultEngine = New(\"default\")\n",
		"internal/beamshape/shape.go": "package beamshape\n\nvar (\n\tmu    sync.Mutex\n\tcache = map[int]int{}\n)\n",
	}
	for path, src := range allowed {
		found, err := cacheViolations(fset, path, []byte(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(found) != 0 {
			t.Errorf("%s: gate fired on an allowed source: %v", path, found)
		}
	}
}
