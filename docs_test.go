package dagsfc_test

import (
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

// A checked span is a dotted chain of names with a capital somewhere in it,
// optionally called: `core.Options.PathCache`, `layeredRun`, `Embed(p)`.
// Flags, metric and span names, file names and acronyms are not identifiers.
var (
	docSpan  = regexp.MustCompile("`([A-Za-z][A-Za-z0-9]*(?:\\.[A-Za-z][A-Za-z0-9]*)*)(?:\\([^`]*\\))?`")
	docNotGo = regexp.MustCompile(`^[^A-Z]*$|^[A-Z0-9]+$|\.(go|md|json|yml|txt|prom|pprof|sh|mod|dot|csv|test)$`)
)

// docHistory lists the names README.md and DESIGN.md may use although the
// tree has none of them: what a recorded measurement or a "must not grow
// back" guard has to call by its old name, and the standard library's own.
// A name the docs describe in the present tense does not belong here.
var docHistory = map[string]string{
	"ServeThroughput":        "deleted in PR 22",
	"ServeThroughputDurable": "deleted in PR 22",
	"LedgerClone":            "deleted in PR 22",
	"BenchmarkLedgerClone":   "deleted in PR 22",
	"standFlow":              "deleted in PR 22",
	"replayRecord":           "deleted in PR 22",
	"repairFault":            "deleted in PR 22",
	"commitReprotect":        "deleted in PR 22",
	"reprotectOne":           "deleted in PR 22",
	"online.repairHit":       "deleted in PR 24",
	"FlowTable":              "deleted in PR 24",
	"NewFlowTable":           "deleted in PR 24",
	"rentTable":              "deleted in PR 25",
	"BFSFrontiers500":        "deleted in PR 27",

	"Accept":       "net/http",
	"AfterFunc":    "context",
	"timerCtx":     "context",
	"decodeState":  "encoding/json",
	"AppendFormat": "time",
}

// TestDocsDrift is make check's docs-drift: every Go identifier README.md
// and DESIGN.md name in backticks is one some Go file of the tree uses — in
// the named package's directory when the span is qualified by one — or is
// listed in docHistory.
func TestDocsDrift(t *testing.T) {
	all := map[string]bool{}              // every identifier some Go file uses
	byDir := map[string]map[string]bool{} // the same, per package directory name
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.Base(filepath.Dir(path))
		if byDir[dir] == nil {
			byDir[dir] = map[string]bool{}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				all[id.Name], byDir[dir][id.Name] = true, true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Benchmarks and tests go by their short names in the ledger tables.
	has := func(in map[string]bool, name string) bool {
		return in[name] || in["Test"+name] || in["Benchmark"+name]
	}
	used := map[string]bool{}
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, m := range docSpan.FindAllStringSubmatch(line, -1) {
				name := m[1]
				if docNotGo.MatchString(name) {
					continue
				}
				if docHistory[name] != "" {
					used[name] = true
					continue
				}
				parts := strings.Split(name, ".")
				ok := true
				if pkg := byDir[parts[0]]; pkg != nil && len(parts) > 1 {
					ok, parts = has(pkg, parts[1]), parts[2:]
				}
				for _, part := range parts {
					ok = ok && has(all, part)
				}
				if !ok {
					t.Errorf("%s:%d: `%s` names nothing in the tree: describe what the tree has, or list the name in docHistory with the PR that deleted it",
						doc, i+1, name)
				}
			}
		}
	}
	for name := range docHistory {
		if !used[name] {
			t.Errorf("docHistory lists %q, which neither document mentions any more: drop the entry", name)
		}
	}
}

// sizeCeilings are the line counts the tree may not grow past: non-test Go
// outside benchmark/ (its own module), DESIGN.md and README.md. A change
// that has to grow one shrinks something else first, or raises the ceiling
// here and says why; one that shrinks them lowers the ceiling with it.
var sizeCeilings = map[string]int{
	"non-test Go": 19327,
	"DESIGN.md":   2221,
	"README.md":   1249,
}

// TestSizeRatchet fails when non-test Go outside benchmark/, DESIGN.md or
// README.md has more lines than its ceiling in sizeCeilings.
func TestSizeRatchet(t *testing.T) {
	lines := func(path string) int {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Count(string(text), "\n")
	}
	counts := map[string]int{"DESIGN.md": lines("DESIGN.md"), "README.md": lines("README.md")}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (path == "benchmark" || path != "." && strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go"):
			counts["non-test Go"] += lines(path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, ceiling := range sizeCeilings {
		if counts[name] > ceiling {
			t.Errorf("%s is %d lines, past its ceiling of %d: shrink something else, or raise the ceiling in sizeCeilings and say why",
				name, counts[name], ceiling)
		}
	}
}
