package core

import (
	"math"
	"testing"

	"dagsfc/internal/graph"
	"dagsfc/internal/network"
	"dagsfc/internal/sfc"
)

func TestComputeCostFixture(t *testing.T) {
	p := lineFixture()
	s := lineSolution()
	cb, err := ComputeCost(p, s)
	if err != nil {
		t.Fatal(err)
	}
	// VNF: f(1)@1=10, f(2)@2=20, f(3)@1=30, merger@2=5.
	if cb.VNFCost != 65 {
		t.Fatalf("VNFCost = %v, want 65", cb.VNFCost)
	}
	// Links: L1 inter e0 (1); L2 inter union {e1} (2); L2 inner e1 again
	// (2); tail e2 (3). Total 8. Note e1 is paid once as inter-layer
	// multicast and once more as inner-layer unicast: α_{e1}=2.
	if cb.LinkCost != 8 {
		t.Fatalf("LinkCost = %v, want 8", cb.LinkCost)
	}
	if cb.Total() != 73 {
		t.Fatalf("Total = %v, want 73", cb.Total())
	}
	if got := refMaps(cb).EdgeUse[1]; got != 2 {
		t.Fatalf("α_{e1} = %d, want 2", got)
	}
	if got := refMaps(cb).EdgeUse[0]; got != 1 {
		t.Fatalf("α_{e0} = %d, want 1", got)
	}
}

func TestComputeCostMulticastDedup(t *testing.T) {
	// Two inter-layer paths of the same layer share edge e1: it must be
	// paid once (eq. 9). Compare against a variant where the shared use
	// is inner-layer, which pays per traversal (eq. 10).
	g := graph.New(4)
	g.MustAddEdge(0, 1, 5, 10) // e0, shared trunk
	g.MustAddEdge(1, 2, 1, 10) // e1
	g.MustAddEdge(1, 3, 1, 10) // e2
	net := network.New(g, network.Catalog{N: 2})
	net.MustAddInstance(2, 1, 0, 10)
	net.MustAddInstance(3, 2, 0, 10)
	net.MustAddInstance(0, network.VNFID(3), 0, 10) // merger at src

	p := &Problem{Net: net, SFC: dagsfcOne2Par(), Src: 0, Dst: 0, Rate: 1, Size: 1}
	s := &Solution{
		Layers: []LayerEmbedding{{
			Nodes:      []graph.NodeID{2, 3},
			MergerNode: 0,
			InterPaths: []graph.Path{
				{From: 0, Edges: []graph.EdgeID{0, 1}},
				{From: 0, Edges: []graph.EdgeID{0, 2}},
			},
			InnerPaths: []graph.Path{
				{From: 2, Edges: []graph.EdgeID{1, 0}},
				{From: 3, Edges: []graph.EdgeID{2, 0}},
			},
		}},
		TailPath: graph.Path{From: 0},
	}
	cb, err := ComputeCost(p, s)
	if err != nil {
		t.Fatal(err)
	}
	// Inter (multicast): e0 once (5) + e1 (1) + e2 (1) = 7.
	// Inner (unicast): e1 (1) + e0 (5) + e2 (1) + e0 again (5) = 12.
	if cb.LinkCost != 19 {
		t.Fatalf("LinkCost = %v, want 19 (7 multicast + 12 unicast)", cb.LinkCost)
	}
	// α_{e0} = 1 (inter, deduped) + 2 (inner) = 3.
	if got := refMaps(cb).EdgeUse[0]; got != 3 {
		t.Fatalf("α_{e0} = %d, want 3", got)
	}
}

func TestComputeCostInstanceReuse(t *testing.T) {
	// The same instance rented at two DAG positions pays twice (eq. 7).
	g := graph.New(2)
	g.MustAddEdge(0, 1, 1, 10)
	net := network.New(g, network.Catalog{N: 2})
	net.MustAddInstance(1, 1, 10, 10)
	net.MustAddInstance(1, 2, 20, 10)
	p := &Problem{Net: net, SFC: fromWidths([][]network.VNFID{{1}, {2}, {1}}), Src: 0, Dst: 0, Rate: 1, Size: 1}
	s := &Solution{
		Layers: []LayerEmbedding{
			{Nodes: []graph.NodeID{1}, MergerNode: 1,
				InterPaths: []graph.Path{{From: 0, Edges: []graph.EdgeID{0}}}},
			{Nodes: []graph.NodeID{1}, MergerNode: 1,
				InterPaths: []graph.Path{{From: 1}}},
			{Nodes: []graph.NodeID{1}, MergerNode: 1,
				InterPaths: []graph.Path{{From: 1}}},
		},
		TailPath: graph.Path{From: 1, Edges: []graph.EdgeID{0}},
	}
	cb, err := ComputeCost(p, s)
	if err != nil {
		t.Fatal(err)
	}
	if got := refMaps(cb).InstanceUse[InstanceUseKey{1, 1}]; got != 2 {
		t.Fatalf("α_{v1,f1} = %d, want 2", got)
	}
	// VNF cost: 10*2 + 20 = 40.
	if cb.VNFCost != 40 {
		t.Fatalf("VNFCost = %v, want 40", cb.VNFCost)
	}
}

func TestComputeCostScalesWithFlowSize(t *testing.T) {
	p := lineFixture()
	s := lineSolution()
	base, err := ComputeCost(p, s)
	if err != nil {
		t.Fatal(err)
	}
	p.Size = 2.5
	scaled, err := ComputeCost(p, s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(scaled.Total()-2.5*base.Total()) > 1e-9 {
		t.Fatalf("cost did not scale with z: %v vs %v", scaled.Total(), base.Total())
	}
}

func TestComputeCostMissingInstance(t *testing.T) {
	p := lineFixture()
	s := lineSolution()
	s.Layers[0].Nodes[0] = 3 // f(1) not deployed at node 3
	if _, err := ComputeCost(p, s); err == nil {
		t.Fatal("missing instance went unpriced")
	}
}

// dagsfcOne2Par returns the single-layer SFC [f1|f2 +m].
func dagsfcOne2Par() sfc.DAGSFC {
	return fromWidths([][]network.VNFID{{1, 2}})
}
