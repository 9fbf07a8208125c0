package dagsfc_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// goFile is one Go file of the tree, read and parsed once for every root
// test that reads Go source.
type goFile struct {
	path string // slash-separated, relative to the repository root
	dir  string // path's directory
	test bool   // a _test.go file
	text string
	ast  *ast.File
}

// goTree lists and parses the Go files of both modules, the root one and
// benchmark/, skipping hidden directories and testdata.
var goTree = sync.OnceValues(func() ([]*goFile, error) {
	var files []*goFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(p, ".go"):
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		p = filepath.ToSlash(p)
		files = append(files, &goFile{path: p, dir: path.Dir(p), test: strings.HasSuffix(p, "_test.go"), text: string(src), ast: f})
		return nil
	})
	return files, err
})

// treeFiles is goTree for a test: it fails the test when the tree cannot be
// read.
func treeFiles(t *testing.T) []*goFile {
	t.Helper()
	files, err := goTree()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no Go file found: run the test from the repository root")
	}
	return files
}

// An invariant is one structural contract of the tree, checked by reading
// its source. A pattern row forbids a line in a set of files: its sample is
// the line it was written against, from the commit before the deletion it
// guards, so the row provably matches what it forbids. The census row
// checks every exported name of internal/ instead (censusSymbols).
type invariant struct {
	name     string
	contract string
	design   string // the DESIGN.md section stating the contract

	files  []string // the non-test files scanned: path.Match patterns, or dir/... for a whole subtree
	except []string // files left out, in the same form
	tests  bool     // scan _test.go files too
	forbid string   // RE2, matched over a file's text; ^ and $ match at line breaks
	sample string
	msg    string

	census bool
}

var invariants = []invariant{{
	name:     "core-single-goroutine",
	contract: "an embed starts no goroutine: it runs on its caller's, over one arena",
	design:   "9. Concurrency contract",
	files:    []string{"internal/core/*.go"},
	forbid:   `^[[:space:]]*go[[:space:]]`,
	sample:   "\t\tgo func(slot int) {",
	msg:      "internal/core starts a goroutine: an embed must stay on its caller's",
}, {
	name:     "core-dense-reads",
	contract: "the search reads its ledger and instance table once, into dense rows; only validate.go and cost.go, which price one finished solution, query them",
	design:   "11. Memory & allocation discipline",
	files:    []string{"internal/core/*.go"},
	except:   []string{"internal/core/validate.go", "internal/core/cost.go"},
	forbid:   `Net\.Instance\(|\.InstanceResidual\(|\.EdgeResidual\(`,
	sample:   "\t\t\tif ledger.InstanceResidual(v, f) >= p.Rate {",
	msg:      "internal/core's search queries the ledger or the instance table per read; use the run's residual rows and Network.Rents",
}, {
	name:     "core-no-env",
	contract: "what a search does is decided by its Options and its input, never by the process environment",
	design:   "18. Layered kernel for width-1 runs",
	files:    []string{"internal/core/*.go", "internal/graph/*.go"},
	forbid:   `os\.(Getenv|LookupEnv|Environ)\(`,
	sample:   "\tupdate := os.Getenv(\"DAGSFC_UPDATE_GOLDEN\") != \"\"",
	msg:      "internal/core or internal/graph reads the environment: pass an option or delete the switch",
}, {
	name:     "core-one-trace",
	contract: "an embed writes its span tree where each phase runs, into Options.Trace; no observer seam",
	design:   "8. Observability",
	files:    []string{"internal/core/*.go", "cmd/dagsfc-embed/*.go"},
	forbid:   `type[[:space:]]+(Observer[[:space:]]+interface|FuncObserver|MultiObserver|TraceRecorder|logObserver)\b`,
	sample:   "type Observer interface {",
	msg:      "internal/core or cmd/dagsfc-embed declares an observer seam again: the search writes its trace at its source, into Options.Trace",
}, {
	name:     "graph-one-admission",
	contract: "an arc is admitted by the compiled cost view alone",
	design:   "16. Search kernel v2: compiled cost views + delta-stepping",
	files:    []string{"internal/graph/*.go"},
	forbid:   `func \(o \*CostOptions\) admits|func \(g \*Graph\) MinHopPath`,
	sample:   "func (o *CostOptions) admits(g *Graph, arc Arc) bool {",
	msg:      "internal/graph states the admission rule beside the compiled view again: search a CostView",
}, {
	name:     "graph-one-admission-residual-source",
	contract: "a compile reads every edge's residual at once; ResidualSource has no per-edge read",
	design:   "16. Search kernel v2: compiled cost views + delta-stepping",
	files:    []string{"internal/graph/*.go"},
	// From the interface's first line to the first line that starts with
	// a brace: a run of newlines must be followed by anything but "}".
	forbid: `^type ResidualSource interface(?:[^\n]|\n+[^}\n])*EdgeResidual\(e EdgeID\)`,
	sample: "type ResidualSource interface {\n\t// EdgeResidual returns the residual capacity of edge e.\n\tEdgeResidual(e EdgeID) float64",
	msg:    "graph.ResidualSource grew a per-edge read: a compile reads EdgeResiduals once",
}, {
	name:     "graph-one-admission-run-search",
	contract: "runSearch admits arcs through its view; it has no uncompiled branch",
	design:   "16. Search kernel v2: compiled cost views + delta-stepping",
	files:    []string{"internal/core/searchtree.go"},
	forbid:   `cfg\.view != nil`,
	sample:   "\t\t\t\tif cfg.view != nil {",
	msg:      "runSearch admits arcs without its view again: the compiled view is the one admission rule",
}, {
	name:     "graph-one-admission-sfc-dag",
	contract: "internal/sfc has no test-only DAG type",
	design:   "16. Search kernel v2: compiled cost views + delta-stepping",
	files:    []string{"internal/sfc/*.go"},
	forbid:   `type DAG struct`,
	sample:   "type DAG struct {",
	msg:      "internal/sfc grew its test-only DAG back",
}, {
	name:     "graph-one-admission-stats-merge",
	contract: "internal/stats has no test-only Merge",
	design:   "16. Search kernel v2: compiled cost views + delta-stepping",
	files:    []string{"internal/stats/*.go"},
	forbid:   `func \(a \*Accumulator\) Merge`,
	sample:   "func (a *Accumulator) Merge(other Accumulator) {",
	msg:      "internal/stats grew its test-only Merge back",
}, {
	name:     "ledger-dense",
	contract: "a ledger is dense usage rows: no copy-on-write overlay, no view-epoch pin",
	design:   "11. Memory & allocation discipline",
	files:    []string{"internal/network/*.go"},
	forbid:   `edgeDelta|instDelta|epochCell|pinMu|chainSig`,
	sample:   "\tedgeDelta map[graph.EdgeID]float64",
	msg:      "internal/network grew an overlay or an epoch pin back: a ledger is dense rows",
}, {
	name:     "ledger-dense-value-copy",
	contract: "a ledger copy is a value: no fault state shared between copies",
	design:   "11. Memory & allocation discipline",
	files:    []string{"internal/network/*.go"},
	forbid:   `"sync/atomic"|\bfam\b|type quarantine\b`,
	sample:   "\t\"sync/atomic\"",
	msg:      "internal/network shares fault state between ledgers again: a ledger copy is a value",
}, {
	name:     "ledger-dense-one-check",
	contract: "a commit is checked once, by flowstate.Apply",
	design:   "20. Flow state machine: one transition, applied once",
	files:    []string{"internal/flowstate/*.go"},
	forbid:   `func \(st \*State\) Check\(`,
	sample:   "func (st *State) Check(t Transition) error {",
	msg:      "internal/flowstate grew a second commit check: Apply is the one place a commit is checked",
}, {
	name:     "ledger-dense-no-rebase",
	contract: "the live ledger is one dense ledger, copied, never folded",
	design:   "11. Memory & allocation discipline",
	files:    []string{"internal/flowstate/*.go", "internal/server/*.go"},
	forbid:   `Rebase|rebaseLen`,
	sample:   "\tRebase = Kind(129)",
	msg:      "the live ledger is rebased again: it is one dense ledger, copied, never folded",
}, {
	name:     "ledger-dense-shims",
	contract: "the ledger shims kept for benchmark/ gain no caller outside it, tests included",
	design:   "11. Memory & allocation discipline",
	files:    []string{"..."},
	except:   []string{"benchmark/...", "invariants_test.go"},
	tests:    true,
	forbid:   `\.(Overlay|OverlayLen|Flatten)\(`,
	sample:   "\tp.Ledger = network.NewLedger(p.Net).Overlay()",
	msg:      "a Go file outside benchmark/ calls a deprecated ledger shim: build ledgers with NewLedger, copy them with Snapshot",
}, {
	name:     "server-single-writer",
	contract: "the server changes flow state through flowstate.Apply alone: no replay mirror, no second controller, no side table",
	design:   "20. Flow state machine: one transition, applied once",
	files:    []string{"internal/server/*.go"},
	forbid:   `replayRecord|commitReprotect|reprotectOne|dropped[[:space:]]+map\[`,
	sample:   "func (s *Server) replayRecord(r wal.Record) error {",
	msg:      "internal/server mutates flow state beside flowstate.Apply",
}, {
	name:     "server-one-goroutine",
	contract: "a request is served on its own goroutine, deferred work on the timeline's, the one goroutine server.New starts",
	design:   "10. Serving architecture",
	files:    []string{"internal/server/*.go"},
	forbid:   `func \(s \*Server\) (worker|commitLoop)\(|func \(j \*job\) (await|reply)\(|(admit|commit)[[:space:]]+chan[[:space:]]|RepairAdmitRetries|expiryWheel|repairLoop|repairKick|popRepair|enqueueRepairs`,
	sample:   "func (s *Server) commitLoop() {",
	msg:      "internal/server grew a worker pool, a commit loop or a second background goroutine back: a request is served on its own goroutine, deferred work on the timeline",
}, {
	name:     "server-request-garbage",
	contract: "both sides of the socket decode and encode through the jsonbuf.Buffer kept beside a pooled body, and share one Content-Type value",
	design:   "21. The fixed cost of a request",
	files:    []string{"internal/server/http.go", "internal/server/client/client.go"},
	forbid:   `json\.NewDecoder\((r|resp)\.Body|json\.(NewEncoder|Marshal|Unmarshal)\(|Header(\(\))?\.Set\("Content-Type"`,
	sample:   "\tif err := json.NewDecoder(r.Body).Decode(&req); err != nil {",
	msg:      "internal/server allocates per-request garbage it was rid of (see DESIGN, The fixed cost of a request)",
}, {
	name:     "symbol-census",
	contract: "every exported name of internal/ has a non-test reader, or symbolKeep says why it stays",
	design:   "6. Repository map",
	census:   true,
}}

// scans reports whether the row reads f.
func (inv *invariant) scans(f *goFile) bool {
	in := func(patterns []string) bool {
		return slices.ContainsFunc(patterns, func(pattern string) bool {
			if dir, ok := strings.CutSuffix(pattern, "..."); ok {
				return strings.HasPrefix(f.path, dir)
			}
			ok, _ := path.Match(pattern, f.path)
			return ok
		})
	}
	return (inv.tests || !f.test) && in(inv.files) && !in(inv.except)
}

// symbolKeep lists the exported names of internal/ that stay with no
// non-test reference, each with its reason. The census fails on an entry
// that is referenced again or names nothing.
var symbolKeep = map[string]string{
	"faults.Generate":               "draws the seeded fault schedules the server's chaos test plays; TestGenerateDeterministicAndValid pins it",
	"graph.Graph.Connected":         "the connectivity oracle the graph, netgen and sim tests check every generated substrate with",
	"graph.Path.Simple":             "the loopless-path oracle the Dijkstra, Yen and search tests check paths with",
	"server.Server.Journal":         "the in-process read of the flight recorder: tests read flow timelines through it without a socket",
	"server.FlowStateEvicted":       "a flow state of the API's FlowInfo.State vocabulary, beside FlowStateActive; the server tests read flow tables with it",
	"server.FlowStateRepairing":     "a flow state of the API's FlowInfo.State vocabulary, beside FlowStateActive; the chaos test asserts no flow is left in it",
	"server.Server.RevalidateFlows": "the chaos invariant: after a quiescent restore pass no committed flow needs one, which the survivability tests assert",
	"telemetry.Span.Attr":           "the read side of a span's attributes, which the trace tests of telemetry and core check",
	"wal.Log.SetSyncFunc":           "the WAL's fsync fault-injection seam for the tests of wal and server",
}

// censusInterface lists the method names a standard-library interface calls
// without naming them: error, fmt.Stringer, heap.Interface,
// json.Marshaler/Unmarshaler and errors.Is. Such a method counts as
// referenced.
var censusInterface = map[string]bool{
	"Error": true, "String": true, "Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "Is": true,
}

// TestInvariants runs every row of invariants over the tree: a pattern row
// fails on each line it forbids, the census row on each exported name of
// internal/ with no reader and on each stale symbolKeep entry.
func TestInvariants(t *testing.T) {
	files := treeFiles(t)
	for _, inv := range invariants {
		t.Run(inv.name, func(t *testing.T) {
			if inv.census {
				declared, unreferenced := censusSymbols(files)
				for _, name := range unreferenced {
					if symbolKeep[name] == "" {
						t.Errorf("%s has no non-test reference: delete it, or list it in symbolKeep with the reason it stays", name)
					}
				}
				for _, name := range sortedKeys(symbolKeep) {
					if !declared[name] || !slices.Contains(unreferenced, name) {
						t.Errorf("symbolKeep lists %s, which is no exported name of internal/ or has a non-test reference now: drop the entry", name)
					}
				}
				return
			}
			re := regexp.MustCompile("(?m)" + inv.forbid)
			for _, f := range files {
				if !inv.scans(f) {
					continue
				}
				for _, m := range re.FindAllStringIndex(f.text, -1) {
					start := strings.LastIndexByte(f.text[:m[0]], '\n') + 1
					end, _, _ := strings.Cut(f.text[start:], "\n")
					t.Errorf("%s:%d: %s\n%s (%s; DESIGN §%s)", f.path, strings.Count(f.text[:start], "\n")+1,
						strings.TrimSpace(end), inv.msg, inv.contract, inv.design)
				}
			}
		})
	}
}

// TestInvariantTable checks the table itself: every pattern row compiles,
// matches its sample and scans at least one file, every row names a DESIGN
// section that exists, and the census finds what it should in a tree made
// for it — an unreferenced method beside a standard-library call of the
// same name.
func TestInvariantTable(t *testing.T) {
	files := treeFiles(t)
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	headings := strings.Split(string(design), "\n")
	names := map[string]bool{}
	for _, inv := range invariants {
		if names[inv.name] {
			t.Errorf("two rows are named %s", inv.name)
		}
		names[inv.name] = true
		if !slices.Contains(headings, "## "+inv.design) {
			t.Errorf("%s: DESIGN.md has no section %q", inv.name, inv.design)
		}
		if inv.census {
			continue
		}
		if !regexp.MustCompile("(?m)" + inv.forbid).MatchString(inv.sample) {
			t.Errorf("%s: the pattern does not match its own sample %q", inv.name, inv.sample)
		}
		if !slices.ContainsFunc(files, inv.scans) {
			t.Errorf("%s scans no file: a rename left the row matching nothing", inv.name)
		}
	}

	var sample []*goFile
	for p, src := range map[string]string{
		"internal/a/a.go": "package a\n\ntype T struct{}\n\nfunc (T) Clone() T { return T{} }\n\nfunc Used() {}\n\nfunc Unused() { Unused() }\n\nfunc (T) Error() string { return \"\" }\n",
		"cmd/b/main.go":   "package main\n\nimport (\n\t\"slices\"\n\n\t\"dagsfc/internal/a\"\n)\n\nvar _ a.T\n\nfunc main() { a.Used(); _ = slices.Clone([]int{}) }\n",
	} {
		f, err := parser.ParseFile(token.NewFileSet(), p, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		sample = append(sample, &goFile{path: p, dir: path.Dir(p), text: src, ast: f})
	}
	if _, got := censusSymbols(sample); !slices.Equal(got, []string{"a.T.Clone", "a.Unused"}) {
		t.Errorf("the census finds %v in its sample tree, want [a.T.Clone a.Unused]", got)
	}
}

// censusSymbols returns every exported function, method, type, const and
// var of non-test internal/ code, as pkg.Name or pkg.Type.Method, and,
// sorted, those no non-test file of either module names outside their own
// declaration. A name is resolved without types: a selector on a dagsfc
// import references that package's name, any other selector every method
// of its name, a bare identifier its own package's name, and a selector on
// any other import nothing here — slices.Clone is not Graph.Clone.
func censusSymbols(files []*goFile) (declared map[string]bool, unreferenced []string) {
	declared = map[string]bool{}
	referenced := map[string]bool{} // pkg.Name, and .Method for a selector on a value
	for _, f := range files {
		if f.test {
			continue
		}
		pkg := f.ast.Name.Name
		declare := func(key string, id *ast.Ident) string {
			if strings.HasPrefix(f.dir, "internal/") && id.IsExported() {
				declared[key] = true
			}
			return key
		}
		imports := map[string]string{} // local name -> dagsfc package name, "" for any other
		for _, spec := range f.ast.Imports {
			imported, _ := strconv.Unquote(spec.Path.Value)
			name := path.Base(imported)
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = ""
			if strings.HasPrefix(imported, "dagsfc/") {
				imports[name] = path.Base(imported)
			}
		}
		own := map[string]bool{} // what the declaration being walked declares
		ref := func(key string) {
			if !own[key] {
				referenced[key] = true
			}
		}
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field: // a field or parameter name is no reference
				ast.Inspect(n.Type, walk)
				return false
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if target, ok := imports[x.Name]; ok {
						if target != "" {
							ref(target + "." + n.Sel.Name)
						}
						return false
					}
				}
				ref("." + n.Sel.Name)
				ast.Inspect(n.X, walk)
				return false
			case *ast.Ident:
				ref(pkg + "." + n.Name)
			}
			return true
		}
		for _, decl := range f.ast.Decls {
			clear(own)
			switch d := decl.(type) {
			case *ast.FuncDecl:
				key := pkg + "." + d.Name.Name
				if d.Recv != nil {
					typ := pkg + "." + receiverType(d.Recv.List[0].Type)
					own[typ], key = true, typ+"."+d.Name.Name
				}
				if d.Recv == nil || !censusInterface[d.Name.Name] {
					declare(key, d.Name)
				}
				own[key] = true
				ast.Inspect(d.Type, walk)
				if d.Body != nil {
					ast.Inspect(d.Body, walk)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					clear(own)
					switch s := spec.(type) {
					case *ast.TypeSpec:
						own[declare(pkg+"."+s.Name.Name, s.Name)] = true
					case *ast.ValueSpec:
						for _, name := range s.Names {
							own[declare(pkg+"."+name.Name, name)] = true
						}
					}
					ast.Inspect(spec, walk)
				}
			}
		}
	}
	for key := range declared {
		by := key
		if strings.Count(key, ".") == 2 { // a method: any selector of its name
			by = key[strings.LastIndexByte(key, '.'):]
		}
		if !referenced[by] {
			unreferenced = append(unreferenced, key)
		}
	}
	sort.Strings(unreferenced)
	return declared, unreferenced
}

// receiverType is the name of a method's receiver type: T for T, *T, T[P]
// and *T[P].
func receiverType(x ast.Expr) string {
	if star, ok := x.(*ast.StarExpr); ok {
		x = star.X
	}
	if index, ok := x.(*ast.IndexExpr); ok {
		x = index.X
	} else if index, ok := x.(*ast.IndexListExpr); ok {
		x = index.X
	}
	return x.(*ast.Ident).Name
}
