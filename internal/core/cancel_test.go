package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"dagsfc/internal/graph"
)

func TestEmbedContextAlreadyCancelled(t *testing.T) {
	p := lineFixture()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := EmbedContext(ctx, p, MBBEOptions())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled embed returned a result")
	}
	if errors.Is(err, ErrNoEmbedding) {
		t.Fatal("cancellation misreported as infeasibility")
	}
	// The same problem embeds fine without the cancellation.
	if _, err := Embed(p, MBBEOptions()); err != nil {
		t.Fatalf("uncancelled embed: %v", err)
	}
}

func TestEmbedContextExpiredDeadline(t *testing.T) {
	p := lineFixture()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := EmbedContext(ctx, p, MBBEOptions()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestEmbedContextCancelMidRun cancels from inside the search (via an
// Observer callback on a later layer) and checks the run aborts with the
// context's error instead of finishing or reporting ErrNoEmbedding.
func TestEmbedContextCancelMidRun(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randomProblem(rng, 40, 6, 5)
	ctx, cancel := context.WithCancel(context.Background())
	opts := MBBEOptions()
	fired := false
	opts.Observer = FuncObserver{
		OnLayerStart: func(spec LayerSpec, parents int) {
			if spec.Index >= 2 {
				fired = true
				cancel()
			}
		},
	}
	res, err := EmbedContext(ctx, p, opts)
	cancel()
	if !fired {
		// The random instance must be deep enough to reach layer 2;
		// seed 7 with sfcSize 5 is.
		t.Fatal("observer never reached layer 2")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled embed returned a result")
	}
}

func TestSolutionVisitors(t *testing.T) {
	sol := lineSolution()
	var edges []graph.EdgeID
	sol.VisitEdges(func(e graph.EdgeID) { edges = append(edges, e) })
	// L1 inter {0}; L2 inter {1, -}; L2 inner {-, 1}; tail {2}.
	wantEdges := []graph.EdgeID{0, 1, 1, 2}
	if len(edges) != len(wantEdges) {
		t.Fatalf("VisitEdges = %v, want %v", edges, wantEdges)
	}
	for i, e := range wantEdges {
		if edges[i] != e {
			t.Fatalf("VisitEdges = %v, want %v", edges, wantEdges)
		}
	}

	var nodes []graph.NodeID
	sol.VisitNodes(func(v graph.NodeID) { nodes = append(nodes, v) })
	// L1 single VNF at 1 (no merger); L2 VNFs at 2,1 plus merger at 2.
	wantNodes := []graph.NodeID{1, 2, 1, 2}
	if len(nodes) != len(wantNodes) {
		t.Fatalf("VisitNodes = %v, want %v", nodes, wantNodes)
	}
	for i, v := range wantNodes {
		if nodes[i] != v {
			t.Fatalf("VisitNodes = %v, want %v", nodes, wantNodes)
		}
	}
}
