// Protection: the proactive half of survivability. A flow admitted with
// Protection == ProtectionBackup gets a second, disjoint embedding
// computed at admission and reserved in the ledger under the same flow
// ID. Disjointness is seeded from the primary's placement through the
// core search's ban sets: link-disjoint always (every substrate edge the
// primary traverses is banned), node-disjoint best-effort (hosting and
// transit nodes banned too, falling back to link-disjoint-only when the
// substrate cannot afford it). When a fault kills the primary, ApplyFault
// promotes the backup in place — no re-embed, no strand — and hands the
// flow to the restore controller (survive.go), which reserves a fresh
// backup in the background. A flow whose re-protects are exhausted keeps
// serving on its primary, unprotected, rather than being evicted.
package server

import (
	"errors"
	"fmt"

	"dagsfc/internal/core"
	"dagsfc/internal/graph"
	"dagsfc/internal/network"
)

// backupBans fills edges and nodes, emptied first, with the search-time ban
// sets for a backup embedding of primary: every substrate edge the primary
// traverses (link disjointness), and every node it hosts on or transits
// (node disjointness) except the flow's own endpoints, which both
// placements necessarily share.
func backupBans(net *network.Network, primary *core.Solution, src, dst graph.NodeID, edges map[graph.EdgeID]bool, nodes map[graph.NodeID]bool) {
	clear(edges)
	clear(nodes)
	primary.VisitEdges(func(e graph.EdgeID) {
		edges[e] = true
		ed := net.G.Edge(e)
		nodes[ed.A] = true
		nodes[ed.B] = true
	})
	primary.VisitNodes(func(v graph.NodeID) { nodes[v] = true })
	delete(nodes, src)
	delete(nodes, dst)
}

// errUnprotectable refuses a backup no search could find: a primary and a
// link-disjoint backup are two edge-disjoint routes between the endpoints.
var errUnprotectable = fmt.Errorf("endpoints are not 2-edge-connected: %w", core.ErrNoEmbedding)

// embedBackup searches for a backup embedding disjoint from primary. The
// slot's problem must be bound to a ledger that already carries the
// primary's reservations, so the backup's capacity is over and above the
// primary's. Before anything is searched the endpoints are tested for
// 2-edge-connectivity over the links the pair could use — those that still
// carry the rate, and the primary's own — and errUnprotectable answers when
// they are not. Node-disjoint is tried first; if the substrate cannot
// afford it the search retries with only the links banned. The ban sets are
// the slot's, refilled per job, and ride a per-request copy of the job's
// algorithm options (core.Options is a value); nothing holds them once the
// search returns, and a banned search keeps its view and trees to itself,
// so the shared cache never sees them.
func (s *Server) embedBackup(j *job, w *workerScratch, primary *core.Solution) (*core.Result, error) {
	if j.algo.opts == nil {
		// prepare() rejects protection for ban-incapable algorithms; this
		// is a bug guard for controller-issued jobs.
		return nil, fmt.Errorf("%w: algorithm %q cannot compute banned-set backups", ErrBadRequest, j.alg)
	}
	opts := *j.algo.opts
	p := &w.p
	edges, nodes := w.banEdges, w.banNodes
	backupBans(s.net, primary, p.Src, p.Dst, edges, nodes)
	w.edgeRes = p.Ledger.EdgeResiduals(w.edgeRes)
	if !s.net.G.TwoEdgeConnected(&w.bfs, p.Src, p.Dst, func(e graph.EdgeID) bool {
		return edges[e] || w.edgeRes[e] >= p.Rate
	}) {
		return nil, errUnprotectable
	}
	opts.BannedEdges = edges
	opts.BannedNodes = nodes
	res, err := core.EmbedContext(&j.ctx, p, opts)
	if err == nil || !errors.Is(err, core.ErrNoEmbedding) {
		return res, err
	}
	// Node-disjointness is best-effort: fall back to link-disjoint only.
	opts.BannedNodes = nil
	return core.EmbedContext(&j.ctx, p, opts)
}
