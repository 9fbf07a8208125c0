package sim

import (
	"fmt"

	"dagsfc/internal/netgen"
	"dagsfc/internal/sfcgen"
)

// DefaultTrials is the paper's trial count per simulation point.
const DefaultTrials = 100

// baseConfig returns the paper's Table 2 configuration: network size 500,
// connectivity 6, deploy ratio 50%, price ratio 20%, fluctuation 5%, SFC
// size 5.
func baseConfig() PointConfig {
	return PointConfig{
		Net: netgen.Default(),
		SFC: sfcgen.Default(netgen.Default().VNFKinds),
	}
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
		Configure: func(x float64) PointConfig {
			cfg := baseConfig()
			cfg.SFC.Size = int(x)
			return cfg
		},
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
		Configure: func(x float64) PointConfig {
			cfg := baseConfig()
			cfg.SFC.Size = int(x)
			return cfg
		},
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

// Names lists the experiment identifiers in presentation order.
func Names() []string {
	return []string{"fig6a", "fig6b", "fig6c", "fig6d", "fig6e", "fig6f", "runtime", "gap", "ipgap"}
}

// Lookup returns the named experiment or an error listing valid names.
func Lookup(name string, trials int) (*Experiment, error) {
	if e, ok := Experiments(trials)[name]; ok {
		return e, nil
	}
	return nil, fmt.Errorf("sim: unknown experiment %q (valid: %v)", name, Names())
}
