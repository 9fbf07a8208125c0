package dagsfc_test

import (
	"go/ast"
	"os"
	"path"
	"regexp"
	"slices"
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
// tree has none of them: the standard library's own. The documents describe
// the tree as it is, so a deleted name does not belong here.
var docHistory = map[string]string{
	"Accept": "net/http",
}

// TestDocsDrift: every Go identifier README.md and DESIGN.md name in
// backticks is one some Go file of the tree uses — in the named package's
// directory when the span is qualified by one — or is listed in docHistory.
func TestDocsDrift(t *testing.T) {
	all := map[string]bool{}              // every identifier some Go file uses
	byDir := map[string]map[string]bool{} // the same, per package directory name
	for _, f := range treeFiles(t) {
		dir := path.Base(f.dir)
		if byDir[dir] == nil {
			byDir[dir] = map[string]bool{}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				all[id.Name], byDir[dir][id.Name] = true, true
			}
			return true
		})
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
					t.Errorf("%s:%d: `%s` names nothing in the tree: describe what the tree has (docHistory holds only standard-library names)",
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

// designSection returns the text of DESIGN.md's section "## heading", or
// false when there is none.
func designSection(design, heading string) (string, bool) {
	_, rest, ok := strings.Cut(design, "\n## "+heading+"\n")
	if !ok {
		return "", false
	}
	section, _, _ := strings.Cut(rest, "\n## ")
	return section, true
}

// TestDesignNamesEveryInvariant: every TestInvariants row is named, in
// backticks, in the DESIGN.md section its design field points at, so a
// contract cannot be guarded without being documented where it holds.
func TestDesignNamesEveryInvariant(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, inv := range invariants {
		section, ok := designSection(string(design), inv.design)
		if !ok {
			t.Errorf("%s: DESIGN.md has no section %q", inv.name, inv.design)
			continue
		}
		if !strings.Contains(section, "`"+inv.name+"`") {
			t.Errorf("%s: DESIGN.md section %q does not name the row", inv.name, inv.design)
		}
	}
}

// designRef is a pointer into DESIGN.md by section number: "DESIGN §6",
// "DESIGN.md §10", "`DESIGN.md` §3".
var designRef = regexp.MustCompile("DESIGN(?:\\.md)?`?[ \u00a0]*§[ \u00a0]*([0-9]+)")

// TestDesignReferences: every section number README.md, EXPERIMENTS.md and
// the verify skill cite is a DESIGN.md heading.
func TestDesignReferences(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, m := range designRef.FindAllStringSubmatch(line, -1) {
				if !strings.Contains(string(design), "\n## "+m[1]+". ") {
					t.Errorf("%s:%d: %q cites a section DESIGN.md does not have", doc, i+1, m[0])
				}
			}
		}
	}
}

var (
	// flagDecl is a flag registration on the default set: flag.Int("n", …),
	// flag.StringVar(&f.CPUProfile, "cpuprofile", …).
	flagDecl = regexp.MustCompile(`flag\.[A-Za-z0-9]+\((?:&[A-Za-z0-9.]+, )?"([a-z0-9-]+)"`)
	goRunCmd = regexp.MustCompile(`go run \./cmd/([a-z0-9-]+)(.*)`)
	quoted   = regexp.MustCompile(`"[^"]*"|'[^']*'`)
	flagUse  = regexp.MustCompile(`(?:^|\s)--?([A-Za-z][A-Za-z0-9-]*)`)
)

// TestReadmeFlags: every -flag a README.md `go run ./cmd/X` line passes is
// one that X, or diag.RegisterFlags for every command, registers.
func TestReadmeFlags(t *testing.T) {
	registered := map[string][]string{} // "cmd/X" or "internal/diag" -> flags
	for _, f := range treeFiles(t) {
		if !f.test && (strings.HasPrefix(f.dir, "cmd/") || f.dir == "internal/diag") {
			for _, m := range flagDecl.FindAllStringSubmatch(f.text, -1) {
				registered[f.dir] = append(registered[f.dir], m[1])
			}
		}
	}
	if len(registered["internal/diag"]) == 0 {
		t.Fatal("found no flag that internal/diag registers")
	}
	text, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(text), "\n")
	for i := 0; i < len(lines); i++ {
		m := goRunCmd.FindStringSubmatch(lines[i])
		if m == nil {
			continue
		}
		at, cmd, args := i+1, m[1], m[2]
		for strings.HasSuffix(strings.TrimSpace(args), "\\") && i+1 < len(lines) {
			i++
			args = strings.TrimSuffix(strings.TrimSpace(args), "\\") + " " + lines[i]
		}
		args = quoted.ReplaceAllString(args, "")
		if cut := strings.IndexAny(args, "|&;#>"); cut >= 0 {
			args = args[:cut]
		}
		known := registered["cmd/"+cmd]
		if known == nil {
			t.Errorf("README.md:%d: go run ./cmd/%s names no command of the tree", at, cmd)
			continue
		}
		for _, u := range flagUse.FindAllStringSubmatch(args, -1) {
			if !slices.Contains(known, u[1]) && !slices.Contains(registered["internal/diag"], u[1]) {
				t.Errorf("README.md:%d: go run ./cmd/%s passes -%s, which it does not register", at, cmd, u[1])
			}
		}
	}
}

// sizeCeilings are the line counts the tree may not grow past: non-test Go
// and test Go outside benchmark/ (its own module), the two documents, and
// the guard text beside them — the Makefile and the verify skill. A change
// that has to grow one shrinks something else first, or raises the ceiling
// here and says why; one that shrinks them lowers the ceiling with it.
var sizeCeilings = map[string]int{
	"non-test Go":                    17805,
	"test Go":                        25335,
	"DESIGN.md":                      972,
	"README.md":                      418,
	"Makefile":                       67,
	".claude/skills/verify/SKILL.md": 294,
}

// TestSizeRatchet fails when a count of sizeCeilings passes its ceiling.
func TestSizeRatchet(t *testing.T) {
	counts := map[string]int{}
	for name := range sizeCeilings {
		if strings.HasSuffix(name, " Go") {
			continue
		}
		text, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		counts[name] = strings.Count(string(text), "\n")
	}
	for _, f := range treeFiles(t) {
		if strings.HasPrefix(f.path, "benchmark/") {
			continue
		}
		name := "non-test Go"
		if f.test {
			name = "test Go"
		}
		counts[name] += strings.Count(f.text, "\n")
	}
	for name, ceiling := range sizeCeilings {
		if counts[name] > ceiling {
			t.Errorf("%s is %d lines, past its ceiling of %d: shrink something else, or raise the ceiling in sizeCeilings and say why",
				name, counts[name], ceiling)
		}
	}
}
