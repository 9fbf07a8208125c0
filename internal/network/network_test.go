package network

import (
	"math"
	"slices"
	"testing"

	"dagsfc/internal/graph"
)

// must fails t unless a call the test expects to succeed did.
func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func testNet(t *testing.T) *Network {
	t.Helper()
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1, 10)
	g.MustAddEdge(1, 2, 2, 10)
	g.MustAddEdge(2, 3, 3, 10)
	net := New(g, Catalog{N: 3})
	net.MustAddInstance(0, 1, 10, 5)
	net.MustAddInstance(1, 2, 20, 5)
	net.MustAddInstance(2, 2, 15, 5)
	net.MustAddInstance(2, 3, 30, 5)
	net.MustAddInstance(3, net.Catalog.Merger(), 1, 5)
	return net
}

func TestCatalog(t *testing.T) {
	c := Catalog{N: 3}
	if c.Merger() != 4 {
		t.Fatalf("Merger = %d, want 4", c.Merger())
	}
	if !c.IsRegular(1) || !c.IsRegular(3) || c.IsRegular(0) || c.IsRegular(4) {
		t.Fatal("IsRegular boundaries wrong")
	}
	if !c.Valid(0) || !c.Valid(4) || c.Valid(5) || c.Valid(-1) {
		t.Fatal("Valid boundaries wrong")
	}
}

func TestAddInstanceValidation(t *testing.T) {
	net := testNet(t)
	for _, c := range []struct {
		what            string
		node            graph.NodeID
		vnf             VNFID
		price, capacity float64
	}{
		{"duplicate instance", 0, 1, 5, 5},
		{"dummy deployment", 0, Dummy, 5, 5},
		{"out-of-catalog VNF", 0, 9, 5, 5},
		{"out-of-range node", 99, 1, 5, 5},
		{"negative price", 1, 1, -5, 5},
		{"NaN price", 1, 1, math.NaN(), 5},
		{"NaN capacity", 1, 1, 5, math.NaN()},
		{"+Inf capacity", 1, 1, 5, math.Inf(1)},
		{"off-grid capacity", 1, 1, 5, 0.1},
		{"capacity above 2³²", 1, 1, 5, 0x1p33},
	} {
		if err := net.AddInstance(c.node, c.vnf, c.price, c.capacity); err == nil {
			t.Errorf("%s accepted", c.what)
		}
	}
}

func TestInstanceLookup(t *testing.T) {
	net := testNet(t)
	inst, ok := net.Instance(2, 2)
	if !ok || inst.Price != 15 || inst.Capacity != 5 {
		t.Fatalf("Instance(2,2) = %+v ok=%v", inst, ok)
	}
	if _, ok := net.Instance(3, 1); ok {
		t.Fatal("phantom instance found")
	}
}

func TestDummyInstanceEverywhere(t *testing.T) {
	net := testNet(t)
	for v := 0; v < 4; v++ {
		inst, ok := net.Instance(graph.NodeID(v), Dummy)
		if !ok || inst.Price != 0 {
			t.Fatalf("dummy at node %d = %+v ok=%v", v, inst, ok)
		}
	}
	if _, ok := net.Instance(-1, Dummy); ok {
		t.Fatal("dummy on invalid node")
	}
}

// TestNodesWithAndVNFsAt: the dense rows are the only index of the
// deployment. V_i reads off category i's row ascending by node, whatever
// order the instances were deployed in, without allocating; F_v lists the
// merger, never the implicit dummy, and is nil for a node outside the
// network.
func TestNodesWithAndVNFsAt(t *testing.T) {
	net := New(graph.New(5), Catalog{N: 3})
	for _, v := range []graph.NodeID{4, 0, 3, 1} {
		net.MustAddInstance(v, 2, 10+float64(v), 5)
	}
	net.MustAddInstance(3, net.Catalog.Merger(), 1, 5)
	net.MustAddInstance(3, 1, 1, 5)

	hosts := make([]graph.NodeID, 0, 5)
	read := func() {
		hosts = hosts[:0]
		for v, rent := range net.Rents(2) {
			if rent < graph.Inf {
				hosts = append(hosts, graph.NodeID(v))
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
		t.Fatalf("reading V_2 allocates %v times", allocs)
	}
	if want := []graph.NodeID{0, 1, 3, 4}; !slices.Equal(hosts, want) {
		t.Fatalf("V_2 = %v, want %v", hosts, want)
	}

	if fv, want := net.VNFsAt(3), []VNFID{1, 2, net.Catalog.Merger()}; !slices.Equal(fv, want) {
		t.Fatalf("F_3 = %v, want %v", fv, want)
	}
	if fv := net.VNFsAt(0); !slices.Equal(fv, []VNFID{2}) {
		t.Fatalf("F_0 = %v, want [2]", fv)
	}
	for _, v := range []graph.NodeID{2, -1, 5} {
		if fv := net.VNFsAt(v); fv != nil {
			t.Fatalf("F_%d = %v, want nil", v, fv)
		}
	}
}

func TestAvgPrices(t *testing.T) {
	net := testNet(t)
	// Regular instances priced 10,20,15,30 -> mean 18.75 (merger excluded).
	if got := net.AvgVNFPrice(); got != 18.75 {
		t.Fatalf("AvgVNFPrice = %v, want 18.75", got)
	}
	if got := net.AvgLinkPrice(); got != 2 {
		t.Fatalf("AvgLinkPrice = %v, want 2", got)
	}
}

// TestRentsMatchInstances checks the dense rent rows against Instance, for
// every category including the dummy and the merger, and that deploying
// another instance shows in them.
func TestRentsMatchInstances(t *testing.T) {
	net := testNet(t)
	check := func(n *Network) {
		t.Helper()
		for f := VNFID(0); f <= n.Catalog.Merger(); f++ {
			row := n.Rents(f)
			if len(row) != n.G.NumNodes() {
				t.Fatalf("f(%d): row of %d entries, %d nodes", f, len(row), n.G.NumNodes())
			}
			for v, got := range row {
				want := graph.Inf
				if inst, ok := n.Instance(graph.NodeID(v), f); ok {
					want = inst.Price
				}
				if got != want {
					t.Fatalf("f(%d) on node %d: rent %v, want %v", f, v, got, want)
				}
			}
		}
	}
	check(net)
	net.MustAddInstance(3, 1, 7, 5)
	check(net)
}

// TestDenseRowsAnswerLikeTheMap pins what the instance map used to answer
// for the queries that fall off the dense rows or onto their special rows:
// a node out of range, a category outside the catalog, the dummy and the
// merger.
func TestDenseRowsAnswerLikeTheMap(t *testing.T) {
	net := testNet(t) // 4 nodes, N = 3, merger f(4) on node 3 only
	l := NewLedger(net)
	must(t, l.ReserveInstance(3, net.Catalog.Merger(), 2))
	snap := l.Snapshot()
	rows := rowBits(l)
	free := Instance{Price: 0, Capacity: graph.Inf}
	for _, tc := range []struct {
		name     string
		node     graph.NodeID
		vnf      VNFID
		inst     Instance
		ok       bool
		residual float64
	}{
		{"node below range", -1, 1, Instance{}, false, 0},
		{"node past range", 4, 2, Instance{}, false, 0},
		{"dummy, node past range", 4, Dummy, Instance{}, false, 0},
		{"category below the catalog", 0, -1, Instance{}, false, 0},
		{"category past the merger", 0, 5, Instance{}, false, 0},
		{"far outside both", 1 << 40, 1 << 40, Instance{}, false, 0},
		{"not deployed", 3, 1, Instance{}, false, 0},
		{"merger where none is deployed", 0, 4, Instance{}, false, 0},
		{"dummy", 2, Dummy, free, true, graph.Inf},
		{"merger", 3, 4, Instance{Price: 1, Capacity: 5}, true, 3},
		{"regular", 2, 3, Instance{Price: 30, Capacity: 5}, true, 5},
	} {
		want := tc.inst
		if tc.ok {
			want.Node, want.VNF = tc.node, tc.vnf
		}
		if got, ok := net.Instance(tc.node, tc.vnf); got != want || ok != tc.ok {
			t.Errorf("%s: Instance = %+v, %v; want %+v, %v", tc.name, got, ok, want, tc.ok)
		}
		if got := net.HasVNF(tc.node, tc.vnf); got != tc.ok {
			t.Errorf("%s: HasVNF = %v", tc.name, got)
		}
		for _, led := range []*Ledger{l, snap} {
			if got := led.InstanceResidual(tc.node, tc.vnf); got != tc.residual {
				t.Errorf("%s: InstanceResidual = %v, want %v", tc.name, got, tc.residual)
			}
			if tc.ok {
				continue
			}
			// Nothing to reserve and nothing to release; the dummy's reserve
			// is the no-op it always was.
			if err := led.ReserveInstance(tc.node, tc.vnf, 1); err == nil && tc.vnf != Dummy {
				t.Errorf("%s: reserved capacity nothing has", tc.name)
			}
			if err := led.ReleaseInstance(tc.node, tc.vnf, 1); err == nil && tc.vnf != Dummy {
				t.Errorf("%s: released capacity nothing holds", tc.name)
			}
			if got := led.InstanceUsed(tc.node, tc.vnf); got != 0 {
				t.Errorf("%s: InstanceUsed = %v", tc.name, got)
			}
		}
	}
	if !slices.Equal(rowBits(snap), rows) || !slices.Equal(rowBits(l), rows) {
		t.Error("refused reservations moved the residual rows")
	}
	for _, f := range []VNFID{-1, 5, 1 << 40} {
		if row := net.Rents(f); row != nil {
			t.Errorf("Rents(%d) = %v, want no row", f, row)
		}
		if got := net.MinRent(f); got != graph.Inf {
			t.Errorf("MinRent(%d) = %v, want +Inf", f, got)
		}
	}
	if got := net.MinRent(Dummy); got != 0 {
		t.Errorf("MinRent(dummy) = %v, want 0", got)
	}
	if got := net.MinRent(2); got != 15 {
		t.Errorf("MinRent(2) = %v, want 15", got)
	}
	if got := net.NumInstances(); got != 5 {
		t.Errorf("NumInstances = %d, want 5", got)
	}
	// +Inf is how the rows say "not deployed", so it cannot be a price.
	for _, price := range []float64{graph.Inf, math.NaN()} {
		if err := net.AddInstance(1, 1, price, 5); err == nil {
			t.Errorf("price %v accepted", price)
		}
	}
}
