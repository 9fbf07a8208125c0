package sim

import (
	"fmt"

	"dagsfc/internal/core"
	"dagsfc/internal/netgen"
	"dagsfc/internal/sfcgen"
)

// DefaultTrials is the paper's trial count per simulation point.
const DefaultTrials = 100

// baseConfig returns the paper's Table 2 configuration: network size 500,
// connectivity 6, deploy ratio 50%, price ratio 20%, fluctuation 5%, SFC
// size 5; delays under the library's default model.
func baseConfig() PointConfig {
	return PointConfig{
		Net:   netgen.Default(),
		SFC:   sfcgen.Default(netgen.Default().VNFKinds),
		delay: core.DefaultDelayParams(),
	}
}

// sfcSize is the Table 2 configuration at SFC size x.
func sfcSize(x float64) PointConfig {
	cfg := baseConfig()
	cfg.SFC.Size = int(x)
	return cfg
}

// paperAlgorithms is the comparison set of the paper's figures.
var paperAlgorithms = []Algorithm{MBBE, BBE, MINV, RANV}

// bbeSFCSizeCutoff is where the paper stops evaluating BBE ("the
// inspection of BBE in this simulation ends at 5").
const bbeSFCSizeCutoff = 5

// Experiments returns the full reproduction suite keyed by name; trials
// scales every experiment (use DefaultTrials for the paper's setting).
func Experiments(trials int) map[string]*Experiment {
	exps := []*Experiment{
		Fig6a(trials), Fig6b(trials), Fig6c(trials),
		Fig6d(trials), Fig6e(trials), Fig6f(trials),
		Runtime(trials), Gap(trials), IPGap(trials),
		Delay(trials), Topologies(trials), Pareto(trials),
	}
	m := make(map[string]*Experiment, len(exps))
	for _, e := range exps {
		m[e.Name] = e
	}
	return m
}

// Fig6a reproduces Fig. 6(a): impact of the SFC size (1–9, BBE to 5).
func Fig6a(trials int) *Experiment {
	return &Experiment{
		Name:       "fig6a",
		Title:      "Fig 6(a): impact of the SFC size",
		XLabel:     "SFC size",
		Xs:         []float64{1, 2, 3, 4, 5, 6, 7, 8, 9},
		Algorithms: paperAlgorithms,
		Trials:     trials,
		Configure:  sfcSize,
		Skip: func(alg Algorithm, x float64) bool {
			return alg == BBE && x > bbeSFCSizeCutoff
		},
	}
}

// Fig6b reproduces Fig. 6(b): impact of the network size.
func Fig6b(trials int) *Experiment {
	return &Experiment{
		Name:       "fig6b",
		Title:      "Fig 6(b): impact of the network size",
		XLabel:     "network size",
		Xs:         []float64{10, 20, 50, 100, 200, 500, 1000},
		Algorithms: paperAlgorithms,
		Trials:     trials,
		Configure: func(x float64) PointConfig {
			cfg := baseConfig()
			cfg.Net.Nodes = int(x)
			return cfg
		},
	}
}

// Fig6c reproduces Fig. 6(c): impact of the network connectivity.
func Fig6c(trials int) *Experiment {
	return &Experiment{
		Name:       "fig6c",
		Title:      "Fig 6(c): impact of the network connectivity",
		XLabel:     "avg node degree",
		Xs:         []float64{2, 4, 6, 8, 10, 12, 14},
		Algorithms: paperAlgorithms,
		Trials:     trials,
		Configure: func(x float64) PointConfig {
			cfg := baseConfig()
			cfg.Net.Connectivity = x
			return cfg
		},
	}
}

// Fig6d reproduces Fig. 6(d): impact of the VNF deploying ratio.
func Fig6d(trials int) *Experiment {
	return &Experiment{
		Name:       "fig6d",
		Title:      "Fig 6(d): impact of the VNF deploying ratio",
		XLabel:     "deploy ratio",
		Xs:         []float64{0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70},
		Algorithms: paperAlgorithms,
		Trials:     trials,
		Configure: func(x float64) PointConfig {
			cfg := baseConfig()
			cfg.Net.DeployRatio = x
			return cfg
		},
	}
}

// Fig6e reproduces Fig. 6(e): impact of the average price ratio between
// links and VNFs.
func Fig6e(trials int) *Experiment {
	return &Experiment{
		Name:       "fig6e",
		Title:      "Fig 6(e): impact of the price ratio (links/VNFs)",
		XLabel:     "price ratio",
		Xs:         []float64{0.01, 0.05, 0.10, 0.20, 0.30, 0.40, 0.50},
		Algorithms: paperAlgorithms,
		Trials:     trials,
		Configure: func(x float64) PointConfig {
			cfg := baseConfig()
			cfg.Net.PriceRatio = x
			return cfg
		},
	}
}

// Fig6f reproduces Fig. 6(f): impact of the VNF price fluctuation ratio.
func Fig6f(trials int) *Experiment {
	return &Experiment{
		Name:       "fig6f",
		Title:      "Fig 6(f): impact of the VNF price fluctuation ratio",
		XLabel:     "fluctuation",
		Xs:         []float64{0.05, 0.10, 0.20, 0.30, 0.40, 0.50},
		Algorithms: paperAlgorithms,
		Trials:     trials,
		Configure: func(x float64) PointConfig {
			cfg := baseConfig()
			cfg.Net.VNFPriceFluct = x
			return cfg
		},
	}
}

// Runtime reproduces the §4.5/§5.2 complexity claim: BBE's running time
// explodes with the SFC size while MBBE stays flat, without an apparent
// cost degradation. Cost and wall-clock are both reported.
func Runtime(trials int) *Experiment {
	return &Experiment{
		Name:       "runtime",
		Title:      "BBE vs MBBE: running time and cost vs SFC size",
		XLabel:     "SFC size",
		Xs:         []float64{1, 2, 3, 4, 5, 6, 7},
		Algorithms: []Algorithm{BBE, MBBE},
		Trials:     trials,
		Configure:  sfcSize,
	}
}

// Gap measures the optimality gap of every algorithm against the exact
// solver on instances small enough to enumerate (25 nodes). This
// experiment is not in the paper; it validates the heuristics.
func Gap(trials int) *Experiment {
	return &Experiment{
		Name:       "gap",
		Title:      "Optimality gap vs exact solver (25-node networks)",
		XLabel:     "SFC size",
		Xs:         []float64{1, 2, 3, 4, 5},
		Algorithms: []Algorithm{EXACT, BBE, MBBE, MINV, RANV},
		Trials:     trials,
		Configure: func(x float64) PointConfig {
			cfg := baseConfig()
			cfg.Net.Nodes = 25
			cfg.Net.Connectivity = 4
			cfg.SFC.Size = int(x)
			return cfg
		},
	}
}

// IPGap compares the §3.3 integer program (solved exactly by branch and
// bound) against the DP reference and the heuristics on instances small
// enough for the IP (8-node networks, width-2 layers). The IP may beat
// the DP slightly: its candidate set contains alternative real-paths the
// DP's one-min-cost-path-per-meta model cannot use.
func IPGap(trials int) *Experiment {
	return &Experiment{
		Name:       "ipgap",
		Title:      "Integer program (§3.3) vs DP reference and heuristics (8-node networks)",
		XLabel:     "SFC size",
		Xs:         []float64{1, 2, 3},
		Algorithms: []Algorithm{ILP, EXACT, BBE, MBBE, MINV},
		Trials:     trials,
		Configure: func(x float64) PointConfig {
			cfg := baseConfig()
			cfg.Net.Nodes = 8
			cfg.Net.Connectivity = 3
			cfg.Net.VNFKinds = 4
			cfg.SFC = sfcgen.Config{Size: int(x), LayerWidth: 2, VNFKinds: 4}
			return cfg
		},
	}
}

// Delay reproduces the paper's Fig. 1 motivation quantitatively: MBBE
// embeds each instance's hybrid DAG-SFC and, as SEQ, the sequential form
// of the same chain, and the tables compare end-to-end delay and cost.
func Delay(trials int) *Experiment {
	return &Experiment{
		Name:       "delay",
		Title:      "Motivation (Fig 1): hybrid vs sequential embedding, MBBE",
		XLabel:     "SFC size",
		Xs:         []float64{3, 5, 7, 9},
		Algorithms: []Algorithm{MBBE, SEQ},
		Trials:     trials,
		Configure:  sfcSize,
	}
}

// Topologies embeds the paper's base workload (size-5 SFCs) over each
// ~500-node topology of the robustness catalog; x indexes the catalog,
// whose names label the rows. BBE is left out: it costs what MBBE does,
// far slower.
func Topologies(trials int) *Experiment {
	catalog := topologyCatalog()
	xs := make([]float64, len(catalog))
	for i := range xs {
		xs[i] = float64(i)
	}
	return &Experiment{
		Name:       "topo",
		Title:      "Robustness: embedding cost by topology (~500 nodes, Table 2 workload)",
		XLabel:     "topology",
		Xs:         xs,
		Algorithms: []Algorithm{MBBE, MINV, RANV},
		Trials:     trials,
		Configure: func(x float64) PointConfig {
			cfg := baseConfig()
			cfg.topology = &catalog[int(x)]
			return cfg
		},
	}
}

// Pareto sweeps MBBE's end-to-end delay budget, exposing the
// cost-of-latency trade-off the delay-bounded embedding mode
// (core.Options.MaxDelay) navigates. It is one point whose arms are the
// budget factors, so every factor sees the same instances: each is
// embedded unbounded, then again within factor × that embedding's delay.
//
// Propagation is made significant (0.5 per hop vs 1.0 per VNF): under the
// default model (0.05 per hop) the Table 2 instances embed within one hop
// of optimal delay anyway. And VNF prices are dispersed by 50%: at the
// Table 2 fluctuation (5%) every instance costs about the same, so the
// cost-greedy embedding is already delay-minimal and a tighter budget is
// simply infeasible; at 50% MBBE detours to cheap instances, and the
// budget buys that detour back.
func Pareto(trials int) *Experiment {
	return &Experiment{
		Name:       "pareto",
		Title:      "Delay-bounded MBBE: cost of tightening the delay budget (factor × unbounded delay)",
		XLabel:     "fluctuation",
		Xs:         []float64{0.5},
		Algorithms: []Algorithm{budget(0.6), budget(0.7), budget(0.8), budget(0.9), budget(1), MBBE},
		Trials:     trials,
		Configure: func(x float64) PointConfig {
			cfg := baseConfig()
			cfg.Net.VNFPriceFluct = x
			cfg.delay = core.DelayParams{DefaultProcDelay: 1, MergerDelay: 0.1, HopDelay: 0.5}
			return cfg
		},
	}
}

// Names lists the experiment identifiers in presentation order.
func Names() []string {
	return []string{"fig6a", "fig6b", "fig6c", "fig6d", "fig6e", "fig6f", "runtime", "gap", "ipgap", "delay", "topo", "pareto"}
}

// Lookup returns the named experiment or an error listing valid names.
func Lookup(name string, trials int) (*Experiment, error) {
	if e, ok := Experiments(trials)[name]; ok {
		return e, nil
	}
	return nil, fmt.Errorf("sim: unknown experiment %q (valid: %v)", name, Names())
}
