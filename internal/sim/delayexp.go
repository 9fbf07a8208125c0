package sim

import (
	"math/rand"

	"dagsfc/internal/core"
	"dagsfc/internal/graph"
	"dagsfc/internal/netgen"
	"dagsfc/internal/sfcgen"
	"dagsfc/internal/stats"
)

// DelayPoint aggregates the hybrid-vs-sequential comparison at one SFC
// size: mean end-to-end delay and mean cost of the MBBE embedding of the
// hybrid DAG-SFC and of the fully sequential form of the same chain.
type DelayPoint struct {
	Size                  int
	HybridDelay, SeqDelay stats.Summary
	HybridCost, SeqCost   stats.Summary
	Failures              int
}

// RunDelay reproduces the paper's Fig. 1 motivation quantitatively: for
// each SFC size, embed the hybrid DAG-SFC and its sequential form with
// MBBE on the same instances and compare end-to-end delay (and cost).
func RunDelay(sizes []int, trials int, seed int64, params core.DelayParams) ([]DelayPoint, error) {
	base := baseConfig()
	var points []DelayPoint
	for si, size := range sizes {
		pt := DelayPoint{Size: size}
		var hd, sd, hc, sc stats.Accumulator
		for trial := 0; trial < trials; trial++ {
			rng := rand.New(rand.NewSource(trialSeed(seed, si, trial)))
			net := netgen.MustGenerate(base.Net, rng)
			cfg := base.SFC
			cfg.Size = size
			hybrid := sfcgen.MustGenerate(cfg, rng)
			n := net.G.NumNodes()
			src := graph.NodeID(rng.Intn(n))
			dst := graph.NodeID(rng.Intn(n))
			ph := &core.Problem{Net: net, SFC: hybrid, Src: src, Dst: dst, Rate: 1, Size: 1}
			ps := core.SequentialProblem(ph)
			rh, errH := core.EmbedMBBE(ph)
			rs, errS := core.EmbedMBBE(ps)
			if errH != nil || errS != nil {
				pt.Failures++
				continue
			}
			hd.Add(core.EvaluateDelay(ph, rh.Solution, params))
			sd.Add(core.EvaluateDelay(ps, rs.Solution, params))
			hc.Add(rh.Cost.Total())
			sc.Add(rs.Cost.Total())
		}
		pt.HybridDelay = hd.Summarize()
		pt.SeqDelay = sd.Summarize()
		pt.HybridCost = hc.Summarize()
		pt.SeqCost = sc.Summarize()
		points = append(points, pt)
	}
	return points, nil
}

// DelayTable renders the delay comparison.
func DelayTable(points []DelayPoint) *Table {
	t := &Table{
		Title:  "Motivation (Fig 1): hybrid vs sequential embedding, MBBE",
		Header: []string{"SFC size", "hybrid delay", "seq delay", "delay cut", "hybrid cost", "seq cost"},
	}
	for _, p := range points {
		cut := "-"
		if p.SeqDelay.Mean > 0 {
			cut = pct(1 - p.HybridDelay.Mean/p.SeqDelay.Mean)
		}
		t.AddRow(
			num(float64(p.Size)),
			num(p.HybridDelay.Mean),
			num(p.SeqDelay.Mean),
			cut,
			num(p.HybridCost.Mean),
			num(p.SeqCost.Mean),
		)
	}
	return t
}
