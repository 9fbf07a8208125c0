// Package sfc models service function chains and their standardized
// DAG-SFC form (§3.1 of the paper): a hybrid SFC is divided into ω serial
// layers, each holding a single VNF or a parallel VNF set followed by a
// merger. The package also implements the transformation from a sequential
// chain to a DAG-SFC by analyzing which adjacent network functions may run
// in parallel (the NFP/ParaBox read-write conflict analysis the paper
// builds on), and a generic DAG-to-layers leveling for externally supplied
// dependency graphs.
package sfc

import (
	"fmt"
	"strings"

	"dagsfc/internal/network"
)

// Layer is one serial stage of a DAG-SFC: a parallel VNF set of φ_l regular
// VNFs. A layer with more than one VNF is implicitly followed by a merger
// f(n+1); a single-VNF layer has none.
type Layer struct {
	VNFs []network.VNFID
}

// Width returns φ_l, the number of parallel VNFs in the layer.
func (l Layer) Width() int { return len(l.VNFs) }

// Parallel reports whether the layer needs a merger.
func (l Layer) Parallel() bool { return len(l.VNFs) > 1 }

// DAGSFC is a standardized hybrid SFC: ω serial layers (§3.2, "Model of
// DAG-SFC"). The zero value is the empty SFC (a flow passing straight from
// source to destination).
type DAGSFC struct {
	Layers []Layer
}

// FromChain builds the degenerate DAG-SFC with one single-VNF layer per
// chain element (no parallelism).
func FromChain(chain []network.VNFID) DAGSFC {
	s := DAGSFC{Layers: make([]Layer, len(chain))}
	for i, f := range chain {
		s.Layers[i] = Layer{VNFs: []network.VNFID{f}}
	}
	return s
}

// Omega returns ω, the number of layers.
func (s DAGSFC) Omega() int { return len(s.Layers) }

// Size returns the number of VNFs in the SFC, excluding mergers — the
// paper's "SFC size" metric.
func (s DAGSFC) Size() int {
	n := 0
	for _, l := range s.Layers {
		n += len(l.VNFs)
	}
	return n
}

// MaxWidth returns the largest φ_l over all layers (0 for the empty SFC).
func (s DAGSFC) MaxWidth() int {
	w := 0
	for _, l := range s.Layers {
		if len(l.VNFs) > w {
			w = len(l.VNFs)
		}
	}
	return w
}

// Validate checks structural sanity against a catalog: every layer is
// non-empty, holds only regular categories, and holds no duplicate
// category (a parallel VNF set is a set).
func (s DAGSFC) Validate(c network.Catalog) error {
	for li, l := range s.Layers {
		if len(l.VNFs) == 0 {
			return fmt.Errorf("sfc: layer %d is empty", li+1)
		}
		seen := make(map[network.VNFID]bool, len(l.VNFs))
		for _, f := range l.VNFs {
			if !c.IsRegular(f) {
				return fmt.Errorf("sfc: layer %d holds non-regular VNF f(%d)", li+1, f)
			}
			if seen[f] {
				return fmt.Errorf("sfc: layer %d holds duplicate VNF f(%d)", li+1, f)
			}
			seen[f] = true
		}
	}
	return nil
}

// Sequence flattens the DAG-SFC back to one possible sequential ordering
// (layer by layer, in-layer order preserved). Useful for comparing hybrid
// and sequential embeddings of the same VNF multiset.
func (s DAGSFC) Sequence() []network.VNFID {
	out := make([]network.VNFID, 0, s.Size())
	for _, l := range s.Layers {
		out = append(out, l.VNFs...)
	}
	return out
}

// String renders the SFC as e.g. "[1] -> [2|3|4 +m] -> [5]".
func (s DAGSFC) String() string {
	var b strings.Builder
	for li, l := range s.Layers {
		if li > 0 {
			b.WriteString(" -> ")
		}
		b.WriteByte('[')
		for i, f := range l.VNFs {
			if i > 0 {
				b.WriteByte('|')
			}
			fmt.Fprintf(&b, "%d", f)
		}
		if l.Parallel() {
			b.WriteString(" +m")
		}
		b.WriteByte(']')
	}
	if len(s.Layers) == 0 {
		return "[]"
	}
	return b.String()
}
