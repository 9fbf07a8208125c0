package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	g := New(0)
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if !g.Connected() {
		t.Fatal("empty graph should count as connected")
	}
}

func TestAddEdgeBasics(t *testing.T) {
	g := New(3)
	id, err := g.AddEdge(0, 1, 2.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if id != 0 {
		t.Fatalf("first edge id = %d, want 0", id)
	}
	e := g.Edge(id)
	if e.A != 0 || e.B != 1 || e.Price != 2.5 || e.Capacity != 10 {
		t.Fatalf("unexpected edge %+v", e)
	}
	if len(g.Neighbors(0)) != 1 || len(g.Neighbors(1)) != 1 || len(g.Neighbors(2)) != 0 {
		t.Fatal("degrees wrong after one edge")
	}
}

func TestAddEdgeRejectsSelfLoop(t *testing.T) {
	g := New(2)
	if _, err := g.AddEdge(1, 1, 1, 1); err != ErrSelfLoop {
		t.Fatalf("self loop error = %v, want ErrSelfLoop", err)
	}
}

func TestAddEdgeRejectsOutOfRange(t *testing.T) {
	g := New(2)
	for _, pair := range [][2]NodeID{{-1, 0}, {0, 2}, {5, 1}} {
		if _, err := g.AddEdge(pair[0], pair[1], 1, 1); err == nil {
			t.Fatalf("AddEdge(%d,%d) accepted out-of-range node", pair[0], pair[1])
		}
	}
}

func TestAddEdgeRejectsNegativePriceOrCapacity(t *testing.T) {
	g := New(2)
	for _, c := range []struct {
		what            string
		price, capacity float64
	}{
		{"negative price", -1, 1},
		{"negative capacity", 1, -1},
		{"NaN price", math.NaN(), 1},
		{"+Inf price", math.Inf(1), 1},
		{"NaN capacity", 1, math.NaN()},
		{"+Inf capacity", 1, math.Inf(1)},
		{"off-grid capacity", 1, 0.1},
		{"capacity above 2³²", 1, 0x1p33},
	} {
		if _, err := g.AddEdge(0, 1, c.price, c.capacity); err == nil {
			t.Errorf("%s accepted", c.what)
		}
	}
}

func TestParallelEdgesAllowed(t *testing.T) {
	g := New(2)
	g.MustAddEdge(0, 1, 5, 1)
	g.MustAddEdge(0, 1, 2, 1)
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	e, ok := g.FindEdge(0, 1)
	if !ok || e.Price != 2 {
		t.Fatalf("FindEdge should return the cheapest parallel edge, got %+v ok=%v", e, ok)
	}
}

func TestEdgeOther(t *testing.T) {
	e := Edge{ID: 0, A: 3, B: 7}
	if e.Other(3) != 7 || e.Other(7) != 3 {
		t.Fatal("Other mismatch")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Other on non-endpoint should panic")
		}
	}()
	e.Other(5)
}

func TestConnected(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 1, 1)
	g.MustAddEdge(1, 2, 1, 1)
	if g.Connected() {
		t.Fatal("node 3 isolated but graph reported connected")
	}
	g.MustAddEdge(2, 3, 1, 1)
	if !g.Connected() {
		t.Fatal("path graph reported disconnected")
	}
}

// randomConnectedGraph builds a connected graph with n nodes: a random tree
// plus extra random edges. Mirrors (simplified) the netgen construction so
// graph-level properties can be tested independently.
func randomConnectedGraph(rng *rand.Rand, n, extra int) *Graph {
	g := New(n)
	for v := 1; v < n; v++ {
		u := NodeID(rng.Intn(v))
		g.MustAddEdge(u, NodeID(v), 1+rng.Float64()*9, 100)
	}
	for i := 0; i < extra; i++ {
		a := NodeID(rng.Intn(n))
		b := NodeID(rng.Intn(n))
		if a == b {
			continue
		}
		g.MustAddEdge(a, b, 1+rng.Float64()*9, 100)
	}
	return g
}

func TestRandomGraphsConnectedProperty(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%30) + 2
		rng := rand.New(rand.NewSource(seed))
		g := randomConnectedGraph(rng, n, n/2)
		return g.Connected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHandshakeLemmaProperty(t *testing.T) {
	// Sum of degrees equals twice the edge count for any random graph.
	f := func(seed int64, sz uint8) bool {
		n := int(sz%40) + 2
		rng := rand.New(rand.NewSource(seed))
		g := randomConnectedGraph(rng, n, n)
		sum := 0
		for v := 0; v < n; v++ {
			sum += len(g.Neighbors(NodeID(v)))
		}
		return sum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
