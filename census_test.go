package dagsfc_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
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

// TestMetricsCensus is make check's metrics-census. Every family the
// Metric* constants of internal/telemetry declare has a reader: a test, a
// command under cmd/, a benchmark/ file, the Makefile or the CI workflow
// names it, by its constant or by its name. And every dagsfc_* family
// README.md and DESIGN.md name is one of them (or the prefix of one).
func TestMetricsCensus(t *testing.T) {
	families := map[string]string{} // constant -> family name
	paths, err := filepath.Glob("internal/telemetry/*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
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
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") && path != ".github" {
				return filepath.SkipDir
			}
			return nil
		}
		inTree := strings.HasPrefix(path, "cmd/") || strings.HasPrefix(path, "benchmark/")
		switch {
		case strings.HasSuffix(path, "_test.go"),
			inTree && (strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".sh") || strings.HasSuffix(path, ".md")),
			path == "Makefile",
			strings.HasPrefix(path, ".github/workflows/"):
			text, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			readers = append(readers, string(text))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
