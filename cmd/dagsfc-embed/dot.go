package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"dagsfc/internal/core"
	"dagsfc/internal/graph"
	"dagsfc/internal/network"
)

// edge roles for coloring.
const (
	roleInter = "inter"
	roleInner = "inner"
	roleTail  = "tail"
)

var roleColors = map[string]string{
	roleInter: "red",
	roleInner: "blue",
	roleTail:  "darkgreen",
}

// writeDOT renders p's network with the embedding s as Graphviz DOT, the
// debugging view for small instances: nodes annotated with their hosted
// VNFs and prices, links with prices, rented nodes filled and used links
// bold and colored by role (inter-layer, inner-layer, tail).
func writeDOT(w io.Writer, p *core.Problem, s *core.Solution) error {
	net := p.Net
	rented := map[graph.NodeID][]network.VNFID{}
	edgeRole := map[graph.EdgeID]string{}
	for li, le := range s.Layers {
		spec := p.SFC.Layers[li]
		for i, node := range le.Nodes {
			rented[node] = append(rented[node], spec.VNFs[i])
		}
		if spec.Parallel() {
			rented[le.MergerNode] = append(rented[le.MergerNode], net.Catalog.Merger())
		}
		for _, path := range le.InterPaths {
			markEdges(edgeRole, path, roleInter)
		}
		for _, path := range le.InnerPaths {
			markEdges(edgeRole, path, roleInner)
		}
	}
	markEdges(edgeRole, s.TailPath, roleTail)

	var b strings.Builder
	b.WriteString("graph dagsfc {\n")
	b.WriteString("  node [shape=ellipse fontsize=10];\n")
	for v := 0; v < net.G.NumNodes(); v++ {
		node := graph.NodeID(v)
		label := fmt.Sprintf("%d", v)
		if vnfs := net.VNFsAt(node); len(vnfs) > 0 {
			parts := make([]string, len(vnfs))
			for i, f := range vnfs {
				parts[i] = vnfLabel(net, f)
				if inst, ok := net.Instance(node, f); ok {
					parts[i] += fmt.Sprintf(":%.0f", inst.Price)
				}
			}
			label += "\\n" + strings.Join(parts, ",")
		}
		attrs := []string{dotLabel(label)}
		switch {
		case node == p.Src && node == p.Dst:
			attrs = append(attrs, "shape=doubleoctagon")
		case node == p.Src:
			attrs = append(attrs, "shape=invhouse", `color=darkgreen`)
		case node == p.Dst:
			attrs = append(attrs, "shape=house", `color=darkgreen`)
		}
		if uses := rented[node]; len(uses) > 0 {
			sort.Slice(uses, func(i, j int) bool { return uses[i] < uses[j] })
			attrs = append(attrs, "style=filled", "fillcolor=lightyellow")
			marks := make([]string, len(uses))
			for i, f := range uses {
				marks[i] = vnfLabel(net, f)
			}
			attrs[0] = dotLabel(label + "\\n[rents " + strings.Join(marks, "+") + "]")
		}
		fmt.Fprintf(&b, "  n%d [%s];\n", v, strings.Join(attrs, " "))
	}
	for _, e := range net.G.Edges() {
		attrs := []string{dotLabel(trimFloat(e.Price))}
		if role, ok := edgeRole[e.ID]; ok {
			attrs = append(attrs, "penwidth=2.5", "color="+roleColors[role])
		} else {
			attrs = append(attrs, "color=gray70")
		}
		fmt.Fprintf(&b, "  n%d -- n%d [%s];\n", e.A, e.B, strings.Join(attrs, " "))
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// markEdges records a path's edges under role, never downgrading an edge
// that already carries a role (inter wins over inner for display).
func markEdges(roles map[graph.EdgeID]string, path graph.Path, role string) {
	for _, e := range path.Edges {
		if _, ok := roles[e]; !ok {
			roles[e] = role
		}
	}
}

// dotLabel quotes a label without escaping the \n sequences DOT needs
// verbatim. Labels here only contain [0-9a-z:,+\[\]] and \n, so quoting
// is the only concern.
func dotLabel(s string) string {
	return `label="` + strings.ReplaceAll(s, `"`, `\"`) + `"`
}

func vnfLabel(net *network.Network, f network.VNFID) string {
	if f == net.Catalog.Merger() {
		return "m"
	}
	return fmt.Sprintf("f%d", f)
}

func trimFloat(x float64) string {
	s := fmt.Sprintf("%.2f", x)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}
