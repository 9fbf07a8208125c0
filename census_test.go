package dagsfc_test

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// docFamily is a metric family name, or the prefix of some, as the
// documents write it: `dagsfc_wal_*`, `dagsfc_costview_{builds,reuses}_total`.
var docFamily = regexp.MustCompile(`dagsfc_[a-z0-9_]*`)

// TestMetricsCensus: every family the Metric* constants of
// internal/telemetry declare has a reader: a test, a command under cmd/, a
// benchmark/ file, the Makefile or the CI workflow names it, by its constant
// or by its name. And every dagsfc_* family README.md and DESIGN.md name is
// one of them (or the prefix of one).
func TestMetricsCensus(t *testing.T) {
	families := map[string]string{} // constant -> family name
	files := treeFiles(t)
	for _, f := range files {
		if f.test || f.dir != "internal/telemetry" {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			spec, ok := n.(*ast.ValueSpec)
			if !ok {
				return true
			}
			for i, name := range spec.Names {
				if !strings.HasPrefix(name.Name, "Metric") || i >= len(spec.Values) {
					continue
				}
				if lit, ok := spec.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					families[name.Name], _ = strconv.Unquote(lit.Value)
				}
			}
			return true
		})
	}
	if len(families) == 0 {
		t.Fatal("no Metric* constants found in internal/telemetry")
	}

	// The readers: tests anywhere, cmd/ and benchmark/ sources, the Makefile
	// and the CI workflows.
	var readers []string
	for _, f := range files {
		if f.test || strings.HasPrefix(f.path, "cmd/") || strings.HasPrefix(f.path, "benchmark/") {
			readers = append(readers, f.text)
		}
	}
	others := []string{"Makefile", ".github/workflows/ci.yml"}
	for _, pattern := range []string{"benchmark/*.sh", "benchmark/*.md", "cmd/*/*.md"} {
		matches, _ := filepath.Glob(pattern)
		others = append(others, matches...)
	}
	for _, p := range others {
		text, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		readers = append(readers, string(text))
	}
	constants := make([]string, 0, len(families))
	for constant := range families {
		constants = append(constants, constant)
	}
	sort.Strings(constants)
	for _, constant := range constants {
		name := families[constant]
		named := regexp.MustCompile(`\b(` + constant + `|` + name + `(_bucket|_sum|_count)?)\b`)
		read := false
		for _, text := range readers {
			if read = named.MatchString(text); read {
				break
			}
		}
		if !read {
			t.Errorf("%s (%s) has no reader: no test, command, benchmark file, Makefile rule or CI step names it — test it or delete it",
				name, constant)
		}
	}

	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, span := range docFamily.FindAllString(line, -1) {
				if !familyNamed(families, span) {
					t.Errorf("%s:%d: %s is no metric family internal/telemetry declares", doc, i+1, span)
				}
			}
		}
	}
}

// familyNamed reports whether span is a family, one of a histogram's
// series, or the prefix of a family.
func familyNamed(families map[string]string, span string) bool {
	for _, name := range families {
		if strings.HasPrefix(name, span) || strings.TrimSuffix(span, "_bucket") == name ||
			strings.TrimSuffix(span, "_sum") == name || strings.TrimSuffix(span, "_count") == name {
			return true
		}
	}
	return false
}

// censusKeep lists the internal packages that stay with fewer than two
// importing directories, each with its reason. TestPackageCensus fails on an
// entry that no longer needs the exception.
var censusKeep = map[string]string{
	"internal/sim": "the paper-reproduction library behind cmd/dagsfc-bench: Fig. 6 and E7–E13 run through it",
	"internal/lp":  "the simplex under internal/ipmodel's branch and bound; the capacity-headroom LP is to be its second user",
}

// TestPackageCensus: every package and command earns its place. An internal/
// package is imported from at least two directories — by the non-test Go
// files of both modules, the root one and benchmark/ — or censusKeep says
// why it stays; a package with one importer folds into it. A command under
// cmd/ has a test in its directory, or the Makefile or the CI workflow runs
// it.
func TestPackageCensus(t *testing.T) {
	packages := map[string]bool{}             // internal package directories
	importers := map[string]map[string]bool{} // package -> importing directories
	commands := map[string]bool{}             // cmd/ directory -> has a test
	for _, f := range treeFiles(t) {
		dir := f.dir
		if strings.HasPrefix(dir, "cmd/") && strings.Count(dir, "/") == 1 {
			commands[dir] = commands[dir] || f.test
		}
		if f.test {
			continue
		}
		if strings.HasPrefix(dir, "internal/") {
			packages[dir] = true
		}
		for _, spec := range f.ast.Imports {
			imported, _ := strconv.Unquote(spec.Path.Value)
			pkg, ok := strings.CutPrefix(imported, "dagsfc/")
			if !ok || !strings.HasPrefix(pkg, "internal/") || pkg == dir {
				continue
			}
			if importers[pkg] == nil {
				importers[pkg] = map[string]bool{}
			}
			importers[pkg][dir] = true
		}
	}
	if len(packages) == 0 || len(commands) == 0 {
		t.Fatal("no internal/ package or cmd/ program found: run the test from the repository root")
	}

	for _, pkg := range sortedKeys(packages) {
		dirs := sortedKeys(importers[pkg])
		_, kept := censusKeep[pkg]
		switch {
		case kept:
		case len(dirs) == 0:
			t.Errorf("%s is imported by nothing: delete it, or list it in censusKeep with the reason it stays", pkg)
		case len(dirs) == 1:
			t.Errorf("%s is imported from %s alone: fold it into that importer, or list it in censusKeep with the reason it stays",
				pkg, dirs[0])
		}
		if len(dirs) >= 2 && kept {
			t.Errorf("censusKeep lists %s, which %d directories import %v: drop the entry", pkg, len(dirs), dirs)
		}
	}
	for _, pkg := range sortedKeys(censusKeep) {
		if !packages[pkg] {
			t.Errorf("censusKeep lists %s, which is no package of the tree: drop the entry", pkg)
		}
	}

	var runners strings.Builder
	for _, path := range []string{"Makefile", ".github/workflows/ci.yml"} {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		runners.Write(text)
	}
	for _, cmd := range sortedKeys(commands) {
		if !commands[cmd] && !strings.Contains(runners.String(), cmd) {
			t.Errorf("%s has no test in its directory and no Makefile rule or CI step runs it: test it or delete it", cmd)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
