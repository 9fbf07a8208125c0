package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"dagsfc/internal/graph"
	"dagsfc/internal/telemetry"
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

// pollCtx is a context whose Err turns to context.Canceled once it has
// answered left polls (never for a negative left): a cancellation that lands
// on the search's k-th check, wherever that is. polls counts the checks.
type pollCtx struct {
	context.Context
	left, polls int
}

func (c *pollCtx) Err() error {
	c.polls++
	if c.left == 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// TestEmbedContextCancelMidRun cancels at every check the search makes from
// layer 2 on and checks the run aborts with the context's error each time,
// instead of finishing or reporting ErrNoEmbedding.
func TestEmbedContextCancelMidRun(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randomProblem(rng, 40, 6, 5)
	whole := &pollCtx{Context: context.Background(), left: -1}
	if _, err := EmbedContext(whole, p, MBBEOptions()); err != nil {
		t.Fatal(err)
	}
	inLayer2 := 0
	for k := 0; k < whole.polls; k++ {
		tr := telemetry.NewTrace("embed")
		opts := MBBEOptions()
		opts.Trace = tr.Root()
		res, err := EmbedContext(&pollCtx{Context: context.Background(), left: k}, p, opts)
		if len(findChildren(tr.Root(), "layer 2")) == 0 {
			continue // cancelled before layer 2 started
		}
		inLayer2++
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("cancelled at check %d of %d, in layer 2 or later: %v, %v; want context.Canceled and no result", k+1, whole.polls, res, err)
		}
	}
	if inLayer2 == 0 {
		// The random instance must be deep enough to reach layer 2; seed 7
		// with sfcSize 5 is.
		t.Fatal("vacuous: no cancellation landed in layer 2 or later")
	}
	t.Logf("%d of the run's %d checks lie in layer 2 or later", inLayer2, whole.polls)
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
