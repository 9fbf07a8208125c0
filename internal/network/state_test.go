package network

import (
	"encoding/json"
	"math/rand"
	"testing"

	"dagsfc/internal/graph"
)

// TestExportImportExact drives a ledger (reserves and releases with
// awkward fractional amounts), exports, JSON round-trips,
// imports, and demands bit-identical usage on every edge and instance.
func TestExportImportExact(t *testing.T) {
	net := testNet(t)
	l := NewLedger(net)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		e := graph.EdgeID(rng.Intn(net.G.NumEdges()))
		amt := rng.Float64() * 0.3 // non-integral: float-exactness matters
		if rng.Intn(4) == 0 {
			l.ReleaseEdge(e, amt)
		} else if l.EdgeResidual(e) > amt {
			if err := l.ReserveEdge(e, amt); err != nil {
				t.Fatal(err)
			}
		}
	}
	for node := range 4 {
		for _, vnf := range net.VNFsAt(graph.NodeID(node)) {
			amt := rng.Float64()
			if l.InstanceResidual(graph.NodeID(node), vnf) > amt {
				if err := l.ReserveInstance(graph.NodeID(node), vnf, amt); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	st := l.ExportState()
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back LedgerState
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	restored, err := NewLedgerFromState(net, back)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < net.G.NumEdges(); e++ {
		if got, want := restored.EdgeUsed(graph.EdgeID(e)), l.EdgeUsed(graph.EdgeID(e)); got != want {
			t.Fatalf("edge %d: restored %v, want %v (diff %g)", e, got, want, got-want)
		}
	}
	for _, in := range st.Instances {
		if got, want := restored.InstanceUsed(in.Node, in.VNF), l.InstanceUsed(in.Node, in.VNF); got != want {
			t.Fatalf("instance (%d,%d): restored %v, want %v", in.Node, in.VNF, got, want)
		}
	}
}

// TestExportDeterministic pins that identical states export to identical
// bytes (snapshot equality is byte equality).
func TestExportDeterministic(t *testing.T) {
	net := testNet(t)
	mk := func() []byte {
		l := NewLedger(net)
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 200; i++ {
			e := graph.EdgeID(rng.Intn(net.G.NumEdges()))
			if amt := rng.Float64() * 0.2; l.EdgeResidual(e) > amt {
				_ = l.ReserveEdge(e, amt)
			}
		}
		b, err := json.Marshal(l.ExportState())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := mk(), mk()
	if string(a) != string(b) {
		t.Fatal("identical histories exported different bytes")
	}
}

func TestImportRejectsForeignState(t *testing.T) {
	net := testNet(t)
	if _, err := NewLedgerFromState(net, LedgerState{
		Edges: []EdgeUsage{{Edge: graph.EdgeID(net.G.NumEdges() + 5), Used: 1}},
	}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if _, err := NewLedgerFromState(net, LedgerState{
		Instances: []InstanceUsage{{Node: 0, VNF: 9999, Used: 1}},
	}); err == nil {
		t.Fatal("missing instance accepted")
	}
}
