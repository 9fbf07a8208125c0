package sim

import (
	"math/rand"
	"testing"

	"dagsfc/internal/graph"
)

func unitPrice() float64 { return 1 }

func TestRing(t *testing.T) {
	g, err := ring(6, unitPrice, 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 6 || g.NumEdges() != 6 {
		t.Fatalf("ring: %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if !g.Connected() {
		t.Fatal("ring disconnected")
	}
	for v := 0; v < 6; v++ {
		if len(g.Neighbors(graph.NodeID(v))) != 2 {
			t.Fatalf("ring degree %d at %d", len(g.Neighbors(graph.NodeID(v))), v)
		}
	}
	if _, err := ring(2, unitPrice, 10); err == nil {
		t.Fatal("tiny ring accepted")
	}
}

func TestGrid(t *testing.T) {
	g, err := grid(3, 4, unitPrice, 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 12 {
		t.Fatalf("grid nodes = %d", g.NumNodes())
	}
	// Edges: 3*(4-1) horizontal + (3-1)*4 vertical = 9 + 8 = 17.
	if g.NumEdges() != 17 {
		t.Fatalf("grid edges = %d, want 17", g.NumEdges())
	}
	if !g.Connected() {
		t.Fatal("grid disconnected")
	}
	if _, err := grid(1, 1, unitPrice, 10); err == nil {
		t.Fatal("1x1 grid accepted")
	}
}

func TestTorus(t *testing.T) {
	g, err := torus(3, 3, unitPrice, 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 9 || g.NumEdges() != 18 {
		t.Fatalf("torus: %d nodes %d edges, want 9/18", g.NumNodes(), g.NumEdges())
	}
	for v := 0; v < 9; v++ {
		if len(g.Neighbors(graph.NodeID(v))) != 4 {
			t.Fatalf("torus degree %d at node %d, want 4", len(g.Neighbors(graph.NodeID(v))), v)
		}
	}
	if _, err := torus(2, 3, unitPrice, 10); err == nil {
		t.Fatal("2x3 torus accepted (would create parallel wrap links)")
	}
}

func TestFatTree(t *testing.T) {
	g, err := fatTree(4, unitPrice, 10)
	if err != nil {
		t.Fatal(err)
	}
	// k=4: 4 cores + 4 pods x 4 switches = 20 nodes; edges: per pod
	// 2 agg x (2 core + 2 edge) = 8, x4 pods = 32.
	if g.NumNodes() != 20 || g.NumEdges() != 32 {
		t.Fatalf("fat-tree: %d nodes %d edges, want 20/32", g.NumNodes(), g.NumEdges())
	}
	if !g.Connected() {
		t.Fatal("fat-tree disconnected")
	}
	// Core switches have degree k (one link per pod).
	for c := 0; c < 4; c++ {
		if len(g.Neighbors(graph.NodeID(c))) != 4 {
			t.Fatalf("core %d degree %d, want 4", c, len(g.Neighbors(graph.NodeID(c))))
		}
	}
	if _, err := fatTree(3, unitPrice, 10); err == nil {
		t.Fatal("odd arity accepted")
	}
}

func TestBarabasiAlbert(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, err := barabasiAlbert(50, 2, rng, unitPrice, 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 50 {
		t.Fatalf("ba nodes = %d", g.NumNodes())
	}
	// Seed clique C(3,2)=3 edges + 47 nodes x 2 = 97.
	if g.NumEdges() != 97 {
		t.Fatalf("ba edges = %d, want 97", g.NumEdges())
	}
	if !g.Connected() {
		t.Fatal("ba disconnected")
	}
	// Scale-free skew: the max degree should far exceed the mean.
	maxDeg := 0
	for v := 0; v < 50; v++ {
		if d := len(g.Neighbors(graph.NodeID(v))); d > maxDeg {
			maxDeg = d
		}
	}
	if avg := 2 * float64(g.NumEdges()) / 50; float64(maxDeg) < 2*avg {
		t.Fatalf("no preferential attachment skew: max %d avg %.1f", maxDeg, avg)
	}
	if _, err := barabasiAlbert(3, 3, rng, unitPrice, 10); err == nil {
		t.Fatal("n <= m accepted")
	}
}

func TestWaxman(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g, err := waxman(60, 0.4, 0.3, rng, unitPrice, 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 60 || !g.Connected() {
		t.Fatalf("waxman: %d nodes connected=%v", g.NumNodes(), g.Connected())
	}
	if g.NumEdges() < 59 {
		t.Fatal("waxman lost its spanning backbone")
	}
	if _, err := waxman(1, 0.4, 0.3, rng, unitPrice, 10); err == nil {
		t.Fatal("1-node waxman accepted")
	}
	if _, err := waxman(10, 0, 0.3, rng, unitPrice, 10); err == nil {
		t.Fatal("alpha=0 accepted")
	}
}

func TestBuildersUsePriceSampler(t *testing.T) {
	calls := 0
	price := func() float64 { calls++; return float64(calls) }
	g, err := ring(4, price, 10)
	if err != nil {
		t.Fatal(err)
	}
	if calls != g.NumEdges() {
		t.Fatalf("price sampler called %d times for %d edges", calls, g.NumEdges())
	}
	seen := map[float64]bool{}
	for _, e := range g.Edges() {
		seen[e.Price] = true
	}
	if len(seen) != g.NumEdges() {
		t.Fatal("sampled prices not applied per edge")
	}
}

func TestBarabasiAlbertDeterministic(t *testing.T) {
	a, _ := barabasiAlbert(30, 2, rand.New(rand.NewSource(9)), unitPrice, 10)
	b, _ := barabasiAlbert(30, 2, rand.New(rand.NewSource(9)), unitPrice, 10)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("BA not deterministic")
	}
	for i, e := range a.Edges() {
		f := b.Edge(graph.EdgeID(i))
		if e.A != f.A || e.B != f.B {
			t.Fatal("BA edge streams diverge")
		}
	}
}
