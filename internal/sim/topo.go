package sim

// The structured and random topologies of the robustness experiment (E12):
// ring, 2-D grid and torus, k-ary fat-tree, Barabási–Albert scale-free, and
// Waxman random geometric graphs. The paper evaluates only on uniform random
// graphs; these check that the algorithms' behaviour carries over to network
// shapes operators actually deploy. Each builder takes a link-price sampler
// (netgen.Config.LinkPricer) and a uniform link capacity, and returns a
// connected graph.

import (
	"fmt"
	"math"
	"math/rand"

	"dagsfc/internal/graph"
	"dagsfc/internal/netgen"
	"dagsfc/internal/network"
)

// topoBuilder is one entry of the topology catalog: a named ~500-node
// graph, priced and deployed with the paper's Table 2 distribution.
type topoBuilder struct {
	name  string
	graph func(cfg netgen.Config, rng *rand.Rand) (*graph.Graph, error) // nil: netgen's random graph
}

// build draws a network on the topology; a nil builder, like the catalog's
// random entry, draws netgen's random graph.
func (t *topoBuilder) build(cfg netgen.Config, rng *rand.Rand) (*network.Network, error) {
	if t == nil || t.graph == nil {
		return netgen.Generate(cfg, rng)
	}
	g, err := t.graph(cfg, rng)
	if err != nil {
		return nil, err
	}
	return netgen.Populate(g, cfg, rng)
}

// topologyCatalog lists the robustness topologies, each sized to ~500
// nodes so results are comparable with the paper's base configuration.
func topologyCatalog() []topoBuilder {
	return []topoBuilder{
		{"random", nil},
		{"ring", func(cfg netgen.Config, rng *rand.Rand) (*graph.Graph, error) {
			return ring(cfg.Nodes, cfg.LinkPricer(rng), cfg.LinkCapacity)
		}},
		{"grid", func(cfg netgen.Config, rng *rand.Rand) (*graph.Graph, error) {
			return grid(20, 25, cfg.LinkPricer(rng), cfg.LinkCapacity)
		}},
		{"torus", func(cfg netgen.Config, rng *rand.Rand) (*graph.Graph, error) {
			return torus(20, 25, cfg.LinkPricer(rng), cfg.LinkCapacity)
		}},
		{"fat-tree", func(cfg netgen.Config, rng *rand.Rand) (*graph.Graph, error) {
			return fatTree(20, cfg.LinkPricer(rng), cfg.LinkCapacity) // 5*20^2/4 = 500 nodes
		}},
		{"scale-free", func(cfg netgen.Config, rng *rand.Rand) (*graph.Graph, error) {
			return barabasiAlbert(cfg.Nodes, 3, rng, cfg.LinkPricer(rng), cfg.LinkCapacity)
		}},
		{"waxman", func(cfg netgen.Config, rng *rand.Rand) (*graph.Graph, error) {
			return waxman(cfg.Nodes, 0.12, 0.2, rng, cfg.LinkPricer(rng), cfg.LinkCapacity)
		}},
	}
}

// ring returns the n-cycle.
func ring(n int, price func() float64, capacity float64) (*graph.Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("sim: ring needs >= 3 nodes, have %d", n)
	}
	g := graph.New(n)
	for v := 0; v < n; v++ {
		g.MustAddEdge(graph.NodeID(v), graph.NodeID((v+1)%n), price(), capacity)
	}
	return g, nil
}

// grid returns the rows x cols mesh.
func grid(rows, cols int, price func() float64, capacity float64) (*graph.Graph, error) {
	if rows < 1 || cols < 1 || rows*cols < 2 {
		return nil, fmt.Errorf("sim: grid %dx%d too small", rows, cols)
	}
	g := graph.New(rows * cols)
	id := func(r, c int) graph.NodeID { return graph.NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.MustAddEdge(id(r, c), id(r, c+1), price(), capacity)
			}
			if r+1 < rows {
				g.MustAddEdge(id(r, c), id(r+1, c), price(), capacity)
			}
		}
	}
	return g, nil
}

// torus returns the rows x cols mesh with wraparound links.
func torus(rows, cols int, price func() float64, capacity float64) (*graph.Graph, error) {
	if rows < 3 || cols < 3 {
		return nil, fmt.Errorf("sim: torus needs >= 3x3, have %dx%d", rows, cols)
	}
	g := graph.New(rows * cols)
	id := func(r, c int) graph.NodeID { return graph.NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.MustAddEdge(id(r, c), id(r, (c+1)%cols), price(), capacity)
			g.MustAddEdge(id(r, c), id((r+1)%rows, c), price(), capacity)
		}
	}
	return g, nil
}

// fatTree returns the switch-level k-ary fat-tree (k even): (k/2)^2 core
// switches, k pods of k/2 aggregation and k/2 edge switches each —
// 5k^2/4 nodes in total. Node IDs: cores first, then per pod aggregation
// then edge switches.
func fatTree(k int, price func() float64, capacity float64) (*graph.Graph, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("sim: fat-tree arity must be even and >= 2, have %d", k)
	}
	half := k / 2
	cores := half * half
	nodes := cores + k*k // k pods x (half agg + half edge)
	g := graph.New(nodes)
	coreID := func(i int) graph.NodeID { return graph.NodeID(i) }
	aggID := func(pod, i int) graph.NodeID { return graph.NodeID(cores + pod*k + i) }
	edgeID := func(pod, i int) graph.NodeID { return graph.NodeID(cores + pod*k + half + i) }
	for pod := 0; pod < k; pod++ {
		for a := 0; a < half; a++ {
			// Each aggregation switch connects to half core switches.
			for c := 0; c < half; c++ {
				g.MustAddEdge(aggID(pod, a), coreID(a*half+c), price(), capacity)
			}
			// And to every edge switch in its pod.
			for e := 0; e < half; e++ {
				g.MustAddEdge(aggID(pod, a), edgeID(pod, e), price(), capacity)
			}
		}
	}
	return g, nil
}

// barabasiAlbert returns a scale-free graph by preferential attachment:
// each new node attaches m edges to existing nodes with probability
// proportional to degree.
func barabasiAlbert(n, m int, rng *rand.Rand, price func() float64, capacity float64) (*graph.Graph, error) {
	if m < 1 || n < m+1 {
		return nil, fmt.Errorf("sim: barabasi-albert needs n > m >= 1, have n=%d m=%d", n, m)
	}
	g := graph.New(n)
	// Seed: a small clique over the first m+1 nodes.
	var targets []graph.NodeID // endpoint multiset: sampling ∝ degree
	for a := 0; a <= m; a++ {
		for b := a + 1; b <= m; b++ {
			g.MustAddEdge(graph.NodeID(a), graph.NodeID(b), price(), capacity)
			targets = append(targets, graph.NodeID(a), graph.NodeID(b))
		}
	}
	for v := m + 1; v < n; v++ {
		chosen := map[graph.NodeID]bool{}
		for len(chosen) < m {
			chosen[targets[rng.Intn(len(targets))]] = true
		}
		// Insert edges in node order: map iteration would make the edge
		// stream (and thus downstream price sampling) nondeterministic.
		for u := graph.NodeID(0); int(u) < v; u++ {
			if chosen[u] {
				g.MustAddEdge(graph.NodeID(v), u, price(), capacity)
				targets = append(targets, u, graph.NodeID(v))
			}
		}
	}
	return g, nil
}

// waxman returns a random geometric graph: nodes placed uniformly in the
// unit square, each pair linked with probability
// alpha * exp(-dist / (beta * sqrt(2))). A random spanning tree guarantees
// connectivity regardless of the draw.
func waxman(n int, alpha, beta float64, rng *rand.Rand, price func() float64, capacity float64) (*graph.Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("sim: waxman needs >= 2 nodes, have %d", n)
	}
	if alpha <= 0 || alpha > 1 || beta <= 0 {
		return nil, fmt.Errorf("sim: waxman parameters alpha=%v beta=%v invalid", alpha, beta)
	}
	type pt struct{ x, y float64 }
	pts := make([]pt, n)
	for i := range pts {
		pts[i] = pt{rng.Float64(), rng.Float64()}
	}
	g := graph.New(n)
	// Connectivity backbone: the only links the pair scan below can meet.
	backbone := map[[2]graph.NodeID]bool{}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		a, b := graph.NodeID(perm[i]), graph.NodeID(perm[rng.Intn(i)])
		backbone[[2]graph.NodeID{min(a, b), max(a, b)}] = true
		g.MustAddEdge(a, b, price(), capacity)
	}
	maxDist := math.Sqrt2
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if backbone[[2]graph.NodeID{graph.NodeID(a), graph.NodeID(b)}] {
				continue
			}
			d := math.Hypot(pts[a].x-pts[b].x, pts[a].y-pts[b].y)
			if rng.Float64() < alpha*math.Exp(-d/(beta*maxDist)) {
				g.MustAddEdge(graph.NodeID(a), graph.NodeID(b), price(), capacity)
			}
		}
	}
	return g, nil
}
