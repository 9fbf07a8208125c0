// Package sfcgen implements the paper's random SFC generator (§5.1): it
// produces DAG-SFCs "by a specific rule in which every three VNFs can be
// assigned in the same layer", using a fresh random VNF set per SFC so that
// repeated trials share the structure but not the categories.
package sfcgen

import (
	"fmt"
	"math/rand"

	"dagsfc/internal/graph"
	"dagsfc/internal/network"
	"dagsfc/internal/sfc"
)

// Config selects the SFC distribution.
type Config struct {
	// Size is the number of VNFs in the SFC (the paper's "SFC size").
	Size int
	// LayerWidth is the maximum parallel VNF set size; the paper's
	// generator uses 3.
	LayerWidth int
	// VNFKinds is the number of regular categories to draw from; must be
	// at least Size because an SFC never repeats a category in the
	// paper's generator (distinct VNF sets per position).
	VNFKinds int
}

// Default returns the paper's base SFC configuration: size 5, width 3.
func Default(vnfKinds int) Config {
	return Config{Size: 5, LayerWidth: 3, VNFKinds: vnfKinds}
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.Size < 1:
		return fmt.Errorf("sfcgen: size %d < 1", c.Size)
	case c.LayerWidth < 1:
		return fmt.Errorf("sfcgen: layer width %d < 1", c.LayerWidth)
	case c.VNFKinds < c.Size:
		return fmt.Errorf("sfcgen: %d VNF kinds cannot supply %d distinct VNFs", c.VNFKinds, c.Size)
	}
	return nil
}

// Generate draws one DAG-SFC: Size distinct categories sampled uniformly,
// grouped into layers of LayerWidth (the final layer takes the remainder).
// A size-5 width-3 SFC therefore has the structure [a|b|c +m] -> [d|e +m],
// the same structure for every trial but fresh categories each time.
func Generate(cfg Config, rng *rand.Rand) (sfc.DAGSFC, error) {
	if err := cfg.Validate(); err != nil {
		return sfc.DAGSFC{}, err
	}
	perm := rng.Perm(cfg.VNFKinds)
	vnfs := make([]network.VNFID, cfg.Size)
	for i := range vnfs {
		vnfs[i] = network.VNFID(perm[i] + 1)
	}
	var s sfc.DAGSFC
	for start := 0; start < len(vnfs); start += cfg.LayerWidth {
		end := start + cfg.LayerWidth
		if end > len(vnfs) {
			end = len(vnfs)
		}
		s.Layers = append(s.Layers, sfc.Layer{VNFs: vnfs[start:end]})
	}
	return s, nil
}

// MustGenerate is Generate that panics on configuration errors.
func MustGenerate(cfg Config, rng *rand.Rand) sfc.DAGSFC {
	s, err := Generate(cfg, rng)
	if err != nil {
		panic(err)
	}
	return s
}

// Flow draws one request of §5.1: an SFC by Generate, then its source, then
// its destination, each uniform in [0, nodes). Every seeded flow draws in
// this order, so a corpus drawn through Flow repeats bit for bit
// (TestFlowFingerprint pins it). Whatever else a caller draws, such as a
// rate or a distinct destination, it draws before or after the call.
func Flow(cfg Config, nodes int, rng *rand.Rand) (s sfc.DAGSFC, src, dst graph.NodeID, err error) {
	if nodes < 1 {
		return s, 0, 0, fmt.Errorf("sfcgen: %d nodes cannot supply endpoints", nodes)
	}
	if s, err = Generate(cfg, rng); err != nil {
		return s, 0, 0, err
	}
	return s, graph.NodeID(rng.Intn(nodes)), graph.NodeID(rng.Intn(nodes)), nil
}

// MustFlow is Flow that panics on configuration errors.
func MustFlow(cfg Config, nodes int, rng *rand.Rand) (sfc.DAGSFC, graph.NodeID, graph.NodeID) {
	s, src, dst, err := Flow(cfg, nodes, rng)
	if err != nil {
		panic(err)
	}
	return s, src, dst
}
