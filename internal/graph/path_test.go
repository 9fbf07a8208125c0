package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// lineGraph returns 0-1-2-...-(n-1) with unit prices.
func lineGraph(n int) *Graph {
	g := New(n)
	for v := 0; v < n-1; v++ {
		g.MustAddEdge(NodeID(v), NodeID(v+1), 1, 10)
	}
	return g
}

func TestEmptyPath(t *testing.T) {
	g := lineGraph(3)
	p := EmptyPath(1)
	if len(p.Edges) != 0 || p.Len() != 0 {
		t.Fatal("empty path reports non-empty")
	}
	if p.To(g) != 1 {
		t.Fatalf("To = %d, want 1", p.To(g))
	}
	if p.Cost(g) != 0 {
		t.Fatal("empty path has nonzero cost")
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	if !p.Simple(g) {
		t.Fatal("empty path should be simple")
	}
}

func TestPathToNodesCost(t *testing.T) {
	g := lineGraph(4)
	p := Path{From: 0, Edges: []EdgeID{0, 1, 2}}
	if p.To(g) != 3 {
		t.Fatalf("To = %d, want 3", p.To(g))
	}
	nodes := p.Nodes(g)
	want := []NodeID{0, 1, 2, 3}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("Nodes = %v, want %v", nodes, want)
		}
	}
	if p.Cost(g) != 3 {
		t.Fatalf("Cost = %v, want 3", p.Cost(g))
	}
}

func TestPathValidateCatchesDiscontinuity(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 1, 1) // edge 0
	g.MustAddEdge(2, 3, 1, 1) // edge 1, disjoint
	p := Path{From: 0, Edges: []EdgeID{0, 1}}
	if err := p.Validate(g); err == nil {
		t.Fatal("discontinuous path validated")
	}
}

func TestPathValidateCatchesBadEdgeID(t *testing.T) {
	g := lineGraph(2)
	p := Path{From: 0, Edges: []EdgeID{7}}
	if err := p.Validate(g); err == nil {
		t.Fatal("out-of-range edge id validated")
	}
	p = Path{From: 0, Edges: []EdgeID{-1}}
	if err := p.Validate(g); err == nil {
		t.Fatal("negative edge id validated")
	}
}

func TestPathValidateCatchesBadFrom(t *testing.T) {
	g := lineGraph(2)
	p := Path{From: 9}
	if err := p.Validate(g); err == nil {
		t.Fatal("bad From validated")
	}
}

func TestPathSimple(t *testing.T) {
	g := lineGraph(3)
	back := Path{From: 0, Edges: []EdgeID{0, 0}} // 0-1-0 revisits 0
	if back.Simple(g) {
		t.Fatal("backtracking path reported simple")
	}
	fwd := Path{From: 0, Edges: []EdgeID{0, 1}}
	if !fwd.Simple(g) {
		t.Fatal("line path reported non-simple")
	}
}

func TestPathReverse(t *testing.T) {
	g := lineGraph(4)
	p := Path{From: 0, Edges: []EdgeID{0, 1, 2}}
	r := p.Reverse(g)
	if r.From != 3 || r.To(g) != 0 {
		t.Fatalf("reverse endpoints %d->%d", r.From, r.To(g))
	}
	if err := r.Validate(g); err != nil {
		t.Fatal(err)
	}
	if r.Cost(g) != p.Cost(g) {
		t.Fatal("reverse changed cost")
	}
}

func TestPathConcat(t *testing.T) {
	g := lineGraph(4)
	p := Path{From: 0, Edges: []EdgeID{0}}
	q := Path{From: 1, Edges: []EdgeID{1, 2}}
	c := p.Concat(g, q)
	if c.To(g) != 3 || c.Len() != 3 {
		t.Fatalf("concat got %v", c)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched concat should panic")
		}
	}()
	p.Concat(g, Path{From: 3})
}

func TestPathEqual(t *testing.T) {
	a := Path{From: 0, Edges: []EdgeID{1, 2}}
	b := Path{From: 0, Edges: []EdgeID{1, 2}}
	c := Path{From: 0, Edges: []EdgeID{2, 1}}
	d := Path{From: 1, Edges: []EdgeID{1, 2}}
	if !a.Equal(b) || a.Equal(c) || a.Equal(d) {
		t.Fatal("Equal misbehaves")
	}
}

func TestPathString(t *testing.T) {
	g := lineGraph(3)
	p := Path{From: 0, Edges: []EdgeID{0, 1}}
	if s := p.String(g); s != "0->1->2" {
		t.Fatalf("String = %q", s)
	}
}

func TestReverseRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnectedGraph(rng, 12, 6)
		// Random walk of random length.
		p := Path{From: NodeID(rng.Intn(12))}
		v := p.From
		for i := 0; i < rng.Intn(8); i++ {
			arcs := g.Neighbors(v)
			if len(arcs) == 0 {
				break
			}
			a := arcs[rng.Intn(len(arcs))]
			p.Edges = append(p.Edges, a.Edge)
			v = a.To
		}
		rr := p.Reverse(g).Reverse(g)
		return rr.Equal(p) && p.Validate(g) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
