package sfc

import (
	"fmt"
	"strconv"
	"strings"

	"dagsfc/internal/network"
)

// Parse parses the textual DAG-SFC syntax shared by the CLI tools and the
// serving API: layers separated by ';', parallel VNFs within a layer
// separated by ','. For example "1;2,3,4;5" is the three-layer SFC
// [f1] -> [f2|f3|f4 +m] -> [f5]. Whitespace around numbers is ignored.
//
// The separators are counted first, so the result is two allocations: one
// slice of every VNF, and the layers as windows of it (capped, so appending
// to a layer's VNFs never reaches into the next layer).
func Parse(s string) (DAGSFC, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return DAGSFC{}, nil
	}
	layers := 1 + strings.Count(s, ";")
	vnfs := make([]network.VNFID, 0, layers+strings.Count(s, ","))
	out := DAGSFC{Layers: make([]Layer, 0, layers)}
	for li := 1; ; li++ {
		layerStr, rest, more := strings.Cut(s, ";")
		start := len(vnfs)
		for {
			tok, next, comma := strings.Cut(layerStr, ",")
			tok = strings.TrimSpace(tok)
			if tok == "" {
				return DAGSFC{}, fmt.Errorf("sfc: layer %d: empty VNF entry", li)
			}
			id, err := strconv.Atoi(tok)
			if err != nil {
				return DAGSFC{}, fmt.Errorf("sfc: layer %d: %q is not a VNF id", li, tok)
			}
			if id < 1 {
				return DAGSFC{}, fmt.Errorf("sfc: layer %d: VNF id %d must be >= 1", li, id)
			}
			vnfs = append(vnfs, network.VNFID(id))
			if !comma {
				break
			}
			layerStr = next
		}
		out.Layers = append(out.Layers, Layer{VNFs: vnfs[start:len(vnfs):len(vnfs)]})
		if !more {
			return out, nil
		}
		s = rest
	}
}

// Format renders a DAG-SFC in the syntax Parse accepts.
func Format(s DAGSFC) string {
	var stack [64]byte // an SFC of ordinary length costs only the returned string
	b := stack[:0]
	for li, l := range s.Layers {
		if li > 0 {
			b = append(b, ';')
		}
		for i, f := range l.VNFs {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(f), 10)
		}
	}
	return string(b)
}
