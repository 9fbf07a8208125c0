package graph

import (
	"math/rand"
	"testing"
)

// admits states the admission rule arc by arc — not banned, and residual
// capacity at least the floor — as the reference the compiled view is
// tested against. Every residual source in this package's tests is a
// residualFunc, which answers one edge.
func (o *CostOptions) admits(g *Graph, arc Arc) bool {
	if o == nil {
		return true
	}
	if o.BannedEdges[arc.Edge] || o.BannedNodes[arc.To] {
		return false
	}
	if o.MinCapacity <= 0 {
		return true
	}
	capa := g.Edge(arc.Edge).Capacity
	if o.Residual != nil {
		capa = o.Residual.(residualFunc)(arc.Edge)
	}
	return !(capa < o.MinCapacity) // a NaN residual passes, as in compile
}

// TestCompileViewMatchesAdmits pins the compile-time contract: for every
// CSR arc, the compiled admissibility bit and Inf-sentinel price must
// agree with the scalar statement of the rule, admits.
func TestCompileViewMatchesAdmits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(30)
		g := randomConnectedGraph(rng, n, rng.Intn(2*n))
		for _, opts := range diffOptsMatrix(rng, g) {
			view := g.CompileView(opts)
			arcs, _ := g.CSR()
			if view.numArcs != len(arcs) || view.NumNodes() != n {
				t.Fatalf("view shape %dx%d, want %dx%d",
					view.NumNodes(), view.numArcs, n, len(arcs))
			}
			admitted := 0
			for i, arc := range arcs {
				want := opts.admits(g, arc)
				if got := view.Admits(i); got != want {
					t.Fatalf("arc %d: Admits=%v, admits()=%v", i, got, want)
				}
				if want {
					admitted++
					if p := view.price[i]; p != g.Edge(arc.Edge).Price {
						t.Fatalf("arc %d price %v, want %v", i, p, g.Edge(arc.Edge).Price)
					}
				} else if p := view.price[i]; p != Inf {
					t.Fatalf("inadmissible arc %d price %v, want +Inf", i, p)
				}
			}
			if view.admitted != admitted {
				t.Fatalf("admitted = %d, counted %d", view.admitted, admitted)
			}
			for v := 0; v < n; v++ {
				want := opts != nil && opts.BannedNodes[NodeID(v)]
				if got := view.NodeBanned(NodeID(v)); got != want {
					t.Fatalf("NodeBanned(%d) = %v, want %v", v, got, want)
				}
			}
		}
	}
}

// TestCompileViewBucketTuning checks the delta auto-tune and its
// degenerate fallbacks.
func TestCompileViewBucketTuning(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomConnectedGraph(rng, 50, 100)
	view := g.CompileView(nil)
	if view.delta <= 0 || view.nb < viewMinBuckets+2 {
		t.Fatalf("healthy view got delta=%v nb=%d", view.delta, view.nb)
	}
	if view.delta*float64(view.nb-2) < view.maxPrice {
		t.Fatalf("bucket span %v cannot cover maxPrice %v",
			view.delta*float64(view.nb-2), view.maxPrice)
	}

	// All-zero prices: no usable bucket width, heap fallback.
	z := New(3)
	z.MustAddEdge(0, 1, 0, 10)
	z.MustAddEdge(1, 2, 0, 10)
	zv := z.CompileView(nil)
	if zv.delta != 0 {
		t.Fatalf("zero-price view got delta=%v, want heap fallback", zv.delta)
	}
	tree := zv.DijkstraWith(NewScratch(), 0)
	if tree.Dist[2] != 0 {
		t.Fatalf("heap fallback Dist[2] = %v, want 0", tree.Dist[2])
	}

	// Everything inadmissible: also degenerate, and the search goes nowhere.
	bv := g.CompileView(&CostOptions{MinCapacity: 1e9})
	if bv.delta != 0 || bv.admitted != 0 {
		t.Fatalf("fully-filtered view: delta=%v admitted=%d", bv.delta, bv.admitted)
	}
	if tr := bv.DijkstraWith(NewScratch(), 0); tr.Reachable(1) {
		t.Fatal("fully-filtered search reached a neighbor")
	}
}

func TestAppendPathToPreservesPrefix(t *testing.T) {
	g := lineGraph(5)
	tree := g.Dijkstra(0, nil)
	buf := []EdgeID{99, 98}
	out, ok := tree.AppendPathTo(buf, 3)
	if !ok {
		t.Fatal("unreachable")
	}
	if len(out) != 5 || out[0] != 99 || out[1] != 98 {
		t.Fatalf("prefix clobbered: %v", out)
	}
	want, _ := tree.PathTo(3)
	for i, e := range want.Edges {
		if out[2+i] != e {
			t.Fatalf("appended edges %v, want %v", out[2:], want.Edges)
		}
	}
	// Unreachable target: buf returned unchanged.
	g2 := New(3)
	g2.MustAddEdge(0, 1, 1, 1)
	t2 := g2.Dijkstra(0, nil)
	out, ok = t2.AppendPathTo(buf[:2], 2)
	if ok || len(out) != 2 {
		t.Fatalf("unreachable append: %v ok=%v", out, ok)
	}
}

func TestAppendPathToZeroAlloc(t *testing.T) {
	g := lineGraph(64)
	tree := g.Dijkstra(0, nil)
	buf := make([]EdgeID, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		buf = buf[:0]
		buf, _ = tree.AppendPathTo(buf, 63)
	})
	if allocs != 0 {
		t.Fatalf("AppendPathTo allocated %v per run with capacity available", allocs)
	}
}
