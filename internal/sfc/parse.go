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
func Parse(s string) (DAGSFC, error) {
	var out DAGSFC
	s = strings.TrimSpace(s)
	if s == "" {
		return out, nil
	}
	for li, layerStr := range strings.Split(s, ";") {
		var layer Layer
		for _, tok := range strings.Split(layerStr, ",") {
			tok = strings.TrimSpace(tok)
			if tok == "" {
				return DAGSFC{}, fmt.Errorf("sfc: layer %d: empty VNF entry", li+1)
			}
			id, err := strconv.Atoi(tok)
			if err != nil {
				return DAGSFC{}, fmt.Errorf("sfc: layer %d: %q is not a VNF id", li+1, tok)
			}
			if id < 1 {
				return DAGSFC{}, fmt.Errorf("sfc: layer %d: VNF id %d must be >= 1", li+1, id)
			}
			layer.VNFs = append(layer.VNFs, network.VNFID(id))
		}
		out.Layers = append(out.Layers, layer)
	}
	return out, nil
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
