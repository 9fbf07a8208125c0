package core

import (
	"cmp"
	"slices"

	"dagsfc/internal/graph"
	"dagsfc/internal/network"
)

// TreeNode is one node of a Forward or Backward Search Tree, laid out as
// the paper's Table 1 prescribes: the binary-tree pointers (father, left
// child = first node discovered in the next iteration, right child = next
// node of the same iteration), the network node ID, the available VNF set,
// and the previous/next node lists that record physical adjacency between
// tree nodes of consecutive iterations.
type TreeNode struct {
	Father *TreeNode // element 1
	Left   *TreeNode // element 2
	Right  *TreeNode // element 3

	// Node is the network node this tree node stands for (element 4).
	Node graph.NodeID
	// Available is the subset of the search's required categories that
	// this node can actually serve: deployed here with enough residual
	// processing capacity (element 5), sorted. A search confined to another
	// tree's nodes shares that tree's set, whose goal holds its own: a BST
	// node's set is its FST node's, the merger included.
	Available []network.VNFID

	// Prev links this node to the tree nodes of the previous iteration it
	// is physically adjacent to, together with the cheapest connecting
	// link (element 6). Walking Prev choices back to the root enumerates
	// the real-paths the search has instantiated — the dotted arrows of
	// the paper's Fig. 4.
	Prev []TreeLink
	// Next is the inverse of Prev, pointing forward (element 7).
	Next []TreeLink

	// Iteration is the search iteration that discovered the node; the
	// root is iteration 1, matching V^{F,l}_{v,1} = {v}.
	Iteration int
}

// TreeLink is one physical adjacency between tree nodes of consecutive
// iterations.
type TreeLink struct {
	To   *TreeNode
	Edge graph.EdgeID
}

// SearchTree is an FST or BST: the breadth-first exploration of one layer's
// forward or backward search, stored as a left-child/right-sibling binary
// tree plus a dense by-node index.
type SearchTree struct {
	Root *TreeNode
	// nodes lists every tree node in discovery order; idx holds the position
	// in nodes plus one (0 = not discovered) of every node the search could
	// reach: idx[v] for network node v, or, for a search confined to within,
	// idx[i] for the node at position i of within's nodes. A dense index
	// replaces the old map: search trees are queried heavily (the FST's
	// index gates every backward-search step) and network nodes are dense
	// integers; indexing a backward search by the forward search's positions
	// sizes it by the forward search rather than the substrate.
	nodes  []*TreeNode
	idx    []int32
	within *SearchTree
	// levelOff[i] is the offset in nodes where iteration i+1 begins; the
	// nodes of iteration i+1 are nodes[levelOff[i]:levelOff[i+1]] (with
	// len(nodes) closing the last level).
	levelOff []int32
	// covered reports whether the search found every required category.
	covered bool
	// mem is the arena the tree was carved from; nodesByKey carves its
	// lists there too.
	mem *searchMem
}

// index is the position of network node v in nodes plus one, 0 when the
// tree has not discovered it.
func (t *SearchTree) index(v graph.NodeID) int32 {
	if t.within == nil {
		return t.idx[v]
	}
	if i := t.within.idx[v]; i != 0 {
		return t.idx[i-1]
	}
	return 0
}

// NodeOf returns the tree node for network node v, or nil.
func (t *SearchTree) NodeOf(v graph.NodeID) *TreeNode {
	if i := t.index(v); i != 0 {
		return t.nodes[i-1]
	}
	return nil
}

// Size reports the number of tree nodes (|V^{F,l}| or |V^{B,l}|).
func (t *SearchTree) Size() int { return len(t.nodes) }

// Iterations reports how many search iterations ran.
func (t *SearchTree) Iterations() int { return len(t.levelOff) }

// Level returns the tree nodes discovered in iteration i (1-based), in
// discovery order.
func (t *SearchTree) Level(i int) []*TreeNode {
	if i < 1 || i > len(t.levelOff) {
		return nil
	}
	lo := t.levelOff[i-1]
	hi := int32(len(t.nodes))
	if i < len(t.levelOff) {
		hi = t.levelOff[i]
	}
	return t.nodes[lo:hi]
}

// Covered reports whether the search satisfied its coverage goal
// (L_l ⊆ F^{F,l} resp. F^{B,l}).
func (t *SearchTree) Covered() bool { return t.covered }

// nodesByKey fills lists[i] with the tree nodes serving vnfs[i] — their
// available set holds it — in one pass over the discovery order: the first
// limit (positive) of them in a stable sort by key(i, tn), called
// once per node and list, or in discovery order for a nil key. Each list is
// kept by insertion into its slots, so a long tree costs a pass rather than a
// sort of what the cap drops. The lists are carved from the tree's arena.
func (t *SearchTree) nodesByKey(lists [][]*TreeNode, vnfs []network.VNFID, limit int, key func(i int, tn *TreeNode) float64) {
	m, stride := t.mem, min(limit, len(t.nodes))
	m.keys = sized(m.keys, len(vnfs)*stride)
	slots := m.ptrs.alloc(len(vnfs) * stride)
	for i := range lists {
		lists[i] = slots[i*stride : i*stride : (i+1)*stride]
	}
	for _, tn := range t.nodes {
		for i, f := range vnfs {
			if !slices.Contains(tn.Available, f) {
				continue
			}
			k, list, keys := 0.0, lists[i], m.keys[i*stride:]
			if key != nil {
				k = key(i, tn)
			}
			// After every kept node whose key is not greater: equal keys
			// stay in discovery order. A full list drops its last.
			j := len(list)
			for j > 0 && cmp.Compare(keys[j-1], k) > 0 {
				j--
			}
			if j < stride {
				n := min(len(list)+1, stride)
				list = list[:n]
				copy(list[j+1:], list[j:n-1])
				copy(keys[j+1:n], keys[j:n-1])
				list[j], keys[j], lists[i] = tn, k, list
			}
		}
	}
}

// PathToRoot returns one real-path from tn's network node back to the
// root's, following the first Prev link at every level (the cheapest
// discovered adjacency). For an FST the returned path runs node→start, so
// callers reverse it to obtain the start→node direction; for a BST it runs
// node→end, which is already the inner-layer direction.
func (t *SearchTree) PathToRoot(tn *TreeNode) graph.Path {
	p := graph.Path{From: tn.Node}
	if tn.Iteration > 1 {
		p.Edges = make([]graph.EdgeID, 0, tn.Iteration-1)
	}
	for cur := tn; len(cur.Prev) > 0; cur = cur.Prev[0].To {
		p.Edges = append(p.Edges, cur.Prev[0].Edge)
	}
	return p
}

// PathsToRoot enumerates up to max real-paths from tn's network node to the
// root's by branching over the Prev lists (depth-first over choice
// points). max <= 0 yields a single path. The first returned path equals
// PathToRoot(tn).
func (t *SearchTree) PathsToRoot(tn *TreeNode, max int) []graph.Path {
	if max <= 1 {
		return []graph.Path{t.PathToRoot(tn)}
	}
	var out []graph.Path
	var walk func(cur *TreeNode, edges []graph.EdgeID)
	walk = func(cur *TreeNode, edges []graph.EdgeID) {
		if len(out) >= max {
			return
		}
		if len(cur.Prev) == 0 {
			out = append(out, graph.Path{From: tn.Node, Edges: append([]graph.EdgeID(nil), edges...)})
			return
		}
		for _, link := range cur.Prev {
			walk(link.To, append(edges, link.Edge))
			if len(out) >= max {
				return
			}
		}
	}
	walk(tn, nil)
	return out
}

// searchConfig controls one breadth-first search run.
type searchConfig struct {
	// required is the category coverage goal.
	required []network.VNFID
	// within restricts the search to the nodes of an unrestricted search's
	// tree: a backward search stays inside its forward search's node set, and
	// its windows are sized by it. start must be one of those nodes, and
	// required a subset of that search's: the nodes share its available
	// sets. Nil = unrestricted.
	within *SearchTree
	// ringsPast is how many complete iterations the search runs on after the
	// one that achieved coverage: 0 is Algorithm 1's stop rule, 1 gives the
	// candidate set a horizon one hop beyond the nearest cover.
	ringsPast int
	// maxNodes stops the search once the discovered set has this many nodes
	// (MBBE's X_max), covered or not. 0 = unlimited.
	maxNodes int
	// res supplies the instance residuals, read once off the run's ledger.
	// Required.
	res *residuals
	// view admits the arcs: the capacity-only cost view compiled from the
	// same ledger at rate demand, WITHOUT ban sets — runSearch admission is
	// capacity-only. Required.
	view *graph.CostView
	// mem supplies every allocation the tree retains and the search's own
	// working buffers (see searchMem): the embedder passes its run's
	// arena, direct callers a private &searchMem{}. Required.
	mem *searchMem
	// bare skips Table 1's adjacency — the Left/Right binary-tree links and
	// the Prev/Next lists — for a run that takes every real path from its
	// Dijkstra trees, where nothing reads them: the tree keeps its nodes,
	// levels, Father links and index.
	bare bool
}

// runSearch performs the paper's iterative breadth-first search from start
// and materializes the search tree. An arc is admitted when cfg.view admits
// it (residual bandwidth ≥ rate); a category counts as available on a node
// only if its instance there has residual capacity ≥ rate. The search stops
// cfg.ringsPast iterations after the one whose accumulated available sets
// cover the required categories (the tree's covered flag), or when the graph
// (or the maxNodes budget) is exhausted.
func runSearch(p *Problem, start graph.NodeID, cfg searchConfig) *SearchTree {
	res, view := cfg.res, cfg.view
	g := p.Net.G
	arcs, off := g.CSR()

	// The deduplicated, sorted coverage goal plus a parallel found mask;
	// the sort makes every Available set come out sorted for free. mem is
	// hoisted to a local so the closures below don't capture (and
	// heap-move) all of cfg.
	mem := cfg.mem
	needed := mem.vnfs.alloc(len(cfg.required))
	copy(needed, cfg.required)
	sortVNFs(needed)
	needed = dedupSortedVNFs(needed)
	found := mem.idx.alloc(len(needed))
	missing := len(needed)

	// reach is how many nodes the search can discover: the substrate's, or
	// the confining tree's, whose positions then index idx.
	within := cfg.within
	reach := g.NumNodes()
	if within != nil {
		reach = within.Size()
	}
	// available computes a node's serviceable categories into a hoisted
	// buffer, then carves the exact-size result — no per-node
	// over-capacity slice. A confined search reads the set the confining
	// tree computed for the node at position at: its goal holds this one's.
	buf := mem.vnfs.alloc(len(needed))[:0]
	available := func(v graph.NodeID, at int32) []network.VNFID {
		if within != nil {
			return within.nodes[at].Available
		}
		buf = buf[:0]
		for _, f := range needed {
			if res.instance(v, f) >= p.Rate {
				buf = append(buf, f)
			}
		}
		out := mem.vnfs.alloc(len(buf))
		copy(out, buf)
		return out
	}
	// link appends one adjacency to a Prev or Next list. A tree node gains
	// at most one entry per incident arc in either list, so the first
	// append past a full window (a fresh Next list, or a Prev list leaving
	// its one-element birth window) moves it to a window of the node's
	// degree and no later append can outgrow that.
	link := func(list []TreeLink, owner graph.NodeID, l TreeLink) []TreeLink {
		if len(list) == cap(list) {
			grown := mem.links.alloc(int(off[owner+1] - off[owner]))[:len(list)]
			copy(grown, list)
			list = grown
		}
		return append(list, l)
	}
	markFound := func(avail []network.VNFID) {
		for j := 0; j < len(avail) && missing > 0; j++ {
			for i, need := range needed {
				if need == avail[j] && found[i] == 0 {
					found[i] = 1
					missing--
				}
			}
		}
	}

	capHint := reach
	if cfg.maxNodes > 0 && cfg.maxNodes < capHint {
		capHint = cfg.maxNodes
	}
	// All three windows are safe as slab carve-outs: nodes never outgrows
	// capHint (the idx dedup bounds appends by reach and the budget check
	// by maxNodes, whichever made capHint), every level holds at least one
	// node bar the one provisionally open, and idx arrives zeroed by the
	// slab invariant.
	t := mem.trees.one()
	t.mem = mem
	t.within = within
	t.nodes = mem.ptrs.alloc(capHint)[:0]
	t.idx = mem.idx.alloc(reach)
	t.levelOff = mem.idx.alloc(capHint + 1)[:0]
	root := mem.nodes.one()
	root.Node = start
	root.Iteration = 1
	t.Root = root
	t.nodes = append(t.nodes, root)
	at := int32(start)
	if within != nil {
		at = within.idx[start] - 1
	}
	root.Available = available(start, at)
	t.idx[at] = 1
	t.levelOff = append(t.levelOff, 0)
	markFound(root.Available)

	for past := 0; missing > 0 || past < cfg.ringsPast; {
		if missing == 0 {
			past++
		}
		cur := len(t.levelOff)
		frontier := t.Level(cur)
		// Open the next level: freezes the frontier's upper bound so the
		// appends below cannot leak children into it.
		levelStart := len(t.nodes)
		t.levelOff = append(t.levelOff, int32(levelStart))
		for _, tn := range frontier {
			for ai, end := int(off[tn.Node]), int(off[tn.Node+1]); ai < end; ai++ {
				arc := arcs[ai]
				at := int32(arc.To)
				if within != nil {
					if at = within.idx[arc.To] - 1; at < 0 {
						continue
					}
				}
				if !view.Admits(ai) {
					continue
				}
				if i := t.idx[at]; i != 0 {
					// Record extra adjacency from the previous iteration
					// (enables alternative path enumeration), but do not
					// re-discover.
					existing := t.nodes[i-1]
					if existing.Iteration == tn.Iteration+1 && !cfg.bare {
						existing.Prev = link(existing.Prev, existing.Node, TreeLink{To: tn, Edge: arc.Edge})
						tn.Next = link(tn.Next, tn.Node, TreeLink{To: existing, Edge: arc.Edge})
					}
					continue
				}
				if cfg.maxNodes > 0 && len(t.nodes) >= cfg.maxNodes {
					// Budget exhausted (MBBE's X_max): keep what this
					// iteration discovered so far and report coverage as
					// it stands.
					if len(t.nodes) == levelStart {
						t.levelOff = t.levelOff[:cur]
					}
					t.covered = missing == 0
					return t
				}
				child := mem.nodes.one()
				child.Father = tn
				child.Node = arc.To
				child.Available = available(arc.To, at)
				child.Iteration = tn.Iteration + 1
				if !cfg.bare {
					child.Prev = mem.links.alloc(1)
					child.Prev[0] = TreeLink{To: tn, Edge: arc.Edge}
					tn.Next = link(tn.Next, tn.Node, TreeLink{To: child, Edge: arc.Edge})
					// Binary-tree shape: first child hangs left, later nodes
					// of the same iteration chain off the previous node's
					// right.
					if len(t.nodes) == levelStart {
						tn.Left = child
					} else {
						t.nodes[len(t.nodes)-1].Right = child
					}
				}
				t.idx[at] = int32(len(t.nodes)) + 1
				t.nodes = append(t.nodes, child)
				markFound(child.Available)
			}
		}
		if len(t.nodes) == levelStart {
			// Graph exhausted: close the empty level we provisionally opened.
			t.levelOff = t.levelOff[:cur]
			break
		}
	}
	t.covered = missing == 0
	return t
}

func sortVNFs(v []network.VNFID) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// dedupSortedVNFs removes adjacent duplicates from a sorted slice in place.
func dedupSortedVNFs(v []network.VNFID) []network.VNFID {
	out := v[:0]
	for i, f := range v {
		if i == 0 || f != out[len(out)-1] {
			out = append(out, f)
		}
	}
	return out
}
