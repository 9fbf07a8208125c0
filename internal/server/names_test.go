package server_test

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strconv"
	"testing"

	"dagsfc/internal/flowstate"
	"dagsfc/internal/journal"
	"dagsfc/internal/network"
	"dagsfc/internal/server"
	"dagsfc/internal/wal"
)

// TestJournalNamesEveryTransition is the journal's contract with the flow
// state machine: every transition the server applies is journaled exactly
// once, under its kind's name, in the order the WAL logged it — admits
// aside, whose journal face is the enqueue, and revalidations, which change
// nothing durable and are journaled only. Sequential operations walk every
// kind; the log is read back from disk after a crash. And the journal's own
// event types are the pipeline's alone: none is a transition's name.
func TestJournalNamesEveryTransition(t *testing.T) {
	dir := t.TempDir()
	srv, err := server.New(fastRepairs(server.Config{
		Net: threePathNet(), Workers: 1, WALDir: dir, WALSync: "commit", WALSnapshotEvery: -1,
	}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	submit := func(req server.FlowRequest) server.FlowInfo {
		t.Helper()
		info, err := srv.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		return info
	}
	release := func(id int64) {
		t.Helper()
		if _, err := srv.Release(id); err != nil {
			t.Fatal(err)
		}
	}
	// fault applies f, lets every consequence settle, and restores it.
	fault := func(f network.Fault, meanwhile func()) {
		t.Helper()
		if _, err := srv.ApplyFault(f); err != nil {
			t.Fatal(err)
		}
		waitFor(t, func() bool { return srv.PendingRepairs() == 0 })
		if meanwhile != nil {
			meanwhile()
		}
		if _, err := srv.RestoreFault(f); err != nil {
			t.Fatal(err)
		}
	}
	plain := server.FlowRequest{SFC: "1", Src: 0, Dst: 4, Rate: 1, Size: 1}

	release(submit(plain).ID) // commit, release
	ttl := plain
	ttl.TTLSeconds = 0.02
	expiring := submit(ttl) // commit, expire
	waitFor(t, func() bool { return lastEvent(srv, expiring.ID).Type == named(flowstate.Expire) })
	p := submit(protectedRequest()).ID // protected commit: primary via node 1, backup via 2
	fault(edgeDown(0), nil)            // failover onto node 2, re-protect via 3
	fault(edgeDown(4), nil)            // backup loss, re-protect via 1
	c := submit(plain).ID              // via node 1
	// p's backup dies, c strands; p re-protects, c's repair commits.
	fault(network.Fault{Kind: network.FaultNodeDown, Node: 1}, nil)
	// Both now run over link 2 and fit its other half: revalidated.
	fault(network.Fault{Kind: network.FaultLinkDegrade, Link: 2, Fraction: 0.5}, nil)
	release(p)
	release(c)
	d := submit(plain).ID
	// d strands with nowhere to go and is evicted; its tombstone is released.
	fault(network.Fault{Kind: network.FaultNodeDown, Node: 4}, func() { release(d) })
	srv.Crash()

	events, _, missed := srv.Journal().Since(0, 0)
	if missed != 0 {
		t.Fatalf("the ring overflowed by %d events", missed)
	}
	// Every transition's name: the WAL's record types' and "revalidate".
	names := map[journal.Type]flowstate.Kind{named(flowstate.Revalidate): flowstate.Revalidate}
	for k := flowstate.Admit; k <= flowstate.BackupLoss; k++ {
		names[named(k)] = k
	}
	var journaled []string
	seen := map[string]bool{}
	for _, ev := range events {
		k, ok := names[ev.Type]
		if !ok {
			continue
		}
		seen[render(ev)], seen[string(ev.Type)] = true, true
		if k != flowstate.Revalidate {
			journaled = append(journaled, string(ev.Type))
		}
	}
	for name, k := range names {
		if k != flowstate.Admit && !seen[string(name)] {
			t.Errorf("no %q event: the sequence does not walk every kind", name)
		}
	}
	for _, want := range []string{"commit(protected)", "commit(repair)"} {
		if !seen[want] {
			t.Errorf("no %q event", want)
		}
	}

	wlog, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer wlog.Close()
	var logged []string
	for _, r := range rec.Tail {
		if r.Type != wal.TypeAdmit {
			logged = append(logged, r.Type.String())
		}
	}
	if !slices.Equal(journaled, logged) {
		t.Errorf("journaled transitions\n %q\nlogged records\n %q", journaled, logged)
	}

	// The journal's own types, read off its source: none names a transition.
	f, err := parser.ParseFile(token.NewFileSet(), "../journal/journal.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	consts := 0
	for _, decl := range f.Decls {
		if gen, ok := decl.(*ast.GenDecl); ok && gen.Tok == token.CONST {
			for _, spec := range gen.Specs {
				vs := spec.(*ast.ValueSpec)
				if typ, ok := vs.Type.(*ast.Ident); !ok || typ.Name != "Type" {
					continue
				}
				for _, v := range vs.Values {
					name, _ := strconv.Unquote(v.(*ast.BasicLit).Value)
					if _, ok := names[journal.Type(name)]; ok {
						t.Errorf("journal type %q is a transition's name", name)
					}
					consts++
				}
			}
		}
	}
	if consts != 7 {
		t.Errorf("journal declares %d event types, want the 7 pipeline events", consts)
	}
}
