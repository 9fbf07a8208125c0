package telemetry

import (
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestRecordersAllocateNothing is what the instrumentation costs: every
// exported recorder of instr.go, once its series are resolved, records
// without allocating — the embeds and requests that call them on every
// run pay no garbage for being measured. The table must list every
// Record*, Set* and Add* function instr.go declares.
func TestRecordersAllocateNothing(t *testing.T) {
	const alg, route = "allocs-alg", "allocs.route"
	recorders := map[string]func(){
		"RecordPathCacheHits":      func() { RecordPathCacheHits(2) },
		"RecordPathCacheMiss":      RecordPathCacheMiss,
		"RecordPathCacheEvictions": func() { RecordPathCacheEvictions(3) },
		"RecordCostView":           func() { RecordCostView(true); RecordCostView(false) },
		"RecordRepair":             func() { RecordRepair("revalidated"); RecordRepair("evicted") },
		"RecordWorkerPanic":        RecordWorkerPanic,
		"SetBreakerState":          func() { SetBreakerState(1); SetBreakerState(0) },
		"RecordEmbed": func() {
			RecordEmbed(EmbedSample{Alg: alg, Elapsed: time.Millisecond, SearchNodes: 3})
			RecordEmbed(EmbedSample{Alg: alg, Elapsed: time.Millisecond, Failed: true})
			RecordEmbed(EmbedSample{Alg: alg, Elapsed: time.Millisecond, PathTreeNodes: 125})
		},
		"RecordLayeredRun":         func() { RecordLayeredRun(alg, false, 40); RecordLayeredRun(alg, true, 7) },
		"RecordCommitConflict":     RecordCommitConflict,
		"RecordServerStage":        func() { RecordServerStage(StageEmbed, time.Millisecond) },
		"RecordJournalAppend":      func() { RecordJournalAppend(false); RecordJournalAppend(true) },
		"RecordFailover":           RecordFailover,
		"RecordReprotect":          RecordReprotect,
		"RecordBackupAdmitFailure": func() { RecordBackupAdmitFailure(false); RecordBackupAdmitFailure(true) },
		"RecordWALAppend":          func() { RecordWALAppend(64) },
		"RecordWALFsync":           RecordWALFsync,
		"RecordWALSnapshot":        func() { RecordWALSnapshot(512, time.Millisecond) },
		"RecordWALReplay":          func() { RecordWALReplay(3) },
		"SetWALBroken":             func() { SetWALBroken(false) },
		"RecordWALError":           RecordWALError,
		"RecordServerRequest": func() {
			RecordServerRequest(route, "accepted", time.Millisecond)
			RecordServerRequest(route, "conflict", time.Millisecond)
		},
		"AddServerQueueDepth": func() { AddServerQueueDepth(1); AddServerQueueDepth(-1) },
		"SetFlowState":        func() { SetFlowState(0, 0, 0) },
	}

	f, err := parser.ParseFile(token.NewFileSet(), "instr.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Recv != nil {
			continue
		}
		for _, prefix := range []string{"Record", "Set", "Add"} {
			if strings.HasPrefix(fn.Name.Name, prefix) {
				declared = append(declared, fn.Name.Name)
				if recorders[fn.Name.Name] == nil {
					t.Errorf("%s is not in the table", fn.Name.Name)
				}
			}
		}
	}
	for name := range recorders {
		if !slices.Contains(declared, name) {
			t.Errorf("the table lists %s, which instr.go does not declare", name)
		}
	}

	for _, name := range declared {
		record := recorders[name]
		if record == nil {
			continue
		}
		record() // resolves the series
		if allocs := testing.AllocsPerRun(100, record); allocs != 0 {
			t.Errorf("warm %s allocates %.1f objects per call, want 0", name, allocs)
		}
	}
}
