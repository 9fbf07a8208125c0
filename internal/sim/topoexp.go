package sim

import (
	"fmt"
	"math/rand"

	"dagsfc/internal/core"
	"dagsfc/internal/graph"
	"dagsfc/internal/netgen"
	"dagsfc/internal/network"
	"dagsfc/internal/sfcgen"
	"dagsfc/internal/stats"
)

// TopoPoint aggregates one topology's results.
type TopoPoint struct {
	Name  string
	Cells map[Algorithm]*Cell
}

// topoBuilder draws one ~500-node instance of a named topology, priced
// and deployed with the paper's Table 2 distribution.
type topoBuilder struct {
	name  string
	build func(cfg netgen.Config, rng *rand.Rand) (*network.Network, error)
}

// topologyCatalog lists the robustness topologies, each sized to ~500
// nodes so results are comparable with the paper's base configuration.
func topologyCatalog() []topoBuilder {
	populate := func(g *graph.Graph, cfg netgen.Config, rng *rand.Rand) (*network.Network, error) {
		return netgen.Populate(g, cfg, rng)
	}
	return []topoBuilder{
		{"random", func(cfg netgen.Config, rng *rand.Rand) (*network.Network, error) {
			return netgen.Generate(cfg, rng)
		}},
		{"ring", func(cfg netgen.Config, rng *rand.Rand) (*network.Network, error) {
			g, err := ring(cfg.Nodes, cfg.LinkPricer(rng), cfg.LinkCapacity)
			if err != nil {
				return nil, err
			}
			return populate(g, cfg, rng)
		}},
		{"grid", func(cfg netgen.Config, rng *rand.Rand) (*network.Network, error) {
			g, err := grid(20, 25, cfg.LinkPricer(rng), cfg.LinkCapacity)
			if err != nil {
				return nil, err
			}
			return populate(g, cfg, rng)
		}},
		{"torus", func(cfg netgen.Config, rng *rand.Rand) (*network.Network, error) {
			g, err := torus(20, 25, cfg.LinkPricer(rng), cfg.LinkCapacity)
			if err != nil {
				return nil, err
			}
			return populate(g, cfg, rng)
		}},
		{"fat-tree", func(cfg netgen.Config, rng *rand.Rand) (*network.Network, error) {
			g, err := fatTree(20, cfg.LinkPricer(rng), cfg.LinkCapacity) // 5*20^2/4 = 500 nodes
			if err != nil {
				return nil, err
			}
			return populate(g, cfg, rng)
		}},
		{"scale-free", func(cfg netgen.Config, rng *rand.Rand) (*network.Network, error) {
			g, err := barabasiAlbert(cfg.Nodes, 3, rng, cfg.LinkPricer(rng), cfg.LinkCapacity)
			if err != nil {
				return nil, err
			}
			return populate(g, cfg, rng)
		}},
		{"waxman", func(cfg netgen.Config, rng *rand.Rand) (*network.Network, error) {
			g, err := waxman(cfg.Nodes, 0.12, 0.2, rng, cfg.LinkPricer(rng), cfg.LinkCapacity)
			if err != nil {
				return nil, err
			}
			return populate(g, cfg, rng)
		}},
	}
}

// topoAlgorithms is the comparison set for the topology sweep (BBE is
// skipped: identical to MBBE in cost and much slower).
var topoAlgorithms = []Algorithm{MBBE, MINV, RANV}

// RunTopologies embeds the paper's base workload (size-5 SFCs) over each
// topology in the catalog, trials instances per topology.
func RunTopologies(trials int, seed int64) ([]TopoPoint, error) {
	base := baseConfig()
	var points []TopoPoint
	for ti, tb := range topologyCatalog() {
		pt := TopoPoint{Name: tb.name, Cells: make(map[Algorithm]*Cell)}
		acc := make(map[Algorithm]*stats.Accumulator)
		for _, alg := range topoAlgorithms {
			pt.Cells[alg] = &Cell{}
			acc[alg] = &stats.Accumulator{}
		}
		for trial := 0; trial < trials; trial++ {
			rng := rand.New(rand.NewSource(trialSeed(seed, ti, trial)))
			net, err := tb.build(base.Net, rng)
			if err != nil {
				return nil, fmt.Errorf("sim: topology %s: %w", tb.name, err)
			}
			s := sfcgen.MustGenerate(base.SFC, rng)
			n := net.G.NumNodes()
			src := graph.NodeID(rng.Intn(n))
			dst := graph.NodeID(rng.Intn(n))
			inst := &instance{p: &core.Problem{Net: net, SFC: s, Src: src, Dst: dst, Rate: 1, Size: 1}}
			for _, alg := range topoAlgorithms {
				res, _, err := runBuiltin(alg, inst, trialSeed(seed, ti, trial)^0x2545f491)
				if err != nil {
					pt.Cells[alg].Failures++
					continue
				}
				acc[alg].Add(res.Cost.Total())
			}
		}
		for _, alg := range topoAlgorithms {
			pt.Cells[alg].Cost = acc[alg].Summarize()
		}
		points = append(points, pt)
	}
	return points, nil
}

// TopoTable renders the topology sweep.
func TopoTable(points []TopoPoint) *Table {
	t := &Table{
		Title:  "Robustness: mean embedding cost by topology (~500 nodes, Table 2 workload)",
		Header: []string{"topology"},
	}
	for _, alg := range topoAlgorithms {
		t.Header = append(t.Header, string(alg))
	}
	t.Header = append(t.Header, "MBBE saving", "failures")
	for _, p := range points {
		row := []string{p.Name}
		for _, alg := range topoAlgorithms {
			cell := p.Cells[alg]
			if cell.Cost.N == 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, num(cell.Cost.Mean))
		}
		saving := "-"
		if m, n := p.Cells[MBBE].Cost, p.Cells[MINV].Cost; m.N > 0 && n.N > 0 && n.Mean > 0 {
			saving = pct(1 - m.Mean/n.Mean)
		}
		fails := 0
		for _, alg := range topoAlgorithms {
			fails += p.Cells[alg].Failures
		}
		row = append(row, saving, fmt.Sprintf("%d", fails))
		t.AddRow(row...)
	}
	return t
}
