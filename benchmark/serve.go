package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"dagsfc/internal/core"
	"dagsfc/internal/graph"
	"dagsfc/internal/network"
	"dagsfc/internal/server"
	"dagsfc/internal/server/client"
)

// serveRunner is the full stack in this process: server.Server behind its
// own HTTP handler on a loopback listener, driven by closed-loop clients
// that each own one connection.
type serveRunner struct {
	sp      spec
	net     *network.Network
	cfg     server.Config
	srv     *server.Server
	hs      *http.Server
	served  chan struct{} // closed when hs.Serve returns
	clients []*client.Client
	trans   []*http.Transport
	seed    server.NetworkState
	walDir  string
}

func newServeRunner(sp spec, outDir string) (*serveRunner, error) {
	nw, err := sp.substrate()
	if err != nil {
		return nil, err
	}
	r := &serveRunner{sp: sp, net: nw}
	r.cfg = server.Config{Net: nw, Workers: procs}
	if sp.WAL {
		if r.walDir, err = os.MkdirTemp(outDir, "wal-"); err != nil {
			return nil, err
		}
		r.cfg.WALDir = r.walDir
		r.cfg.WALSync = "commit"
	}
	if r.srv, err = server.New(r.cfg); err != nil {
		r.removeWAL()
		return nil, err
	}
	if err := r.listen(); err != nil {
		_ = r.srv.Close()
		r.removeWAL()
		return nil, err
	}
	r.seed = r.srv.NetworkState()
	return r, nil
}

// listen serves r.srv on a fresh loopback port and points one client per
// closed-loop goroutine at it, each with a transport of its own so the
// connection count equals the client count.
func (r *serveRunner) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	r.hs = &http.Server{Handler: r.srv.Handler()}
	r.served = make(chan struct{})
	go func() {
		_ = r.hs.Serve(ln) // always ErrServerClosed after stopListening
		close(r.served)
	}()
	r.clients, r.trans = nil, nil
	for c := 0; c < r.sp.Clients; c++ {
		tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
		r.trans = append(r.trans, tr)
		r.clients = append(r.clients, client.New("http://"+ln.Addr().String(), &http.Client{Transport: tr}))
	}
	return nil
}

func (r *serveRunner) stopListening() {
	for _, tr := range r.trans {
		tr.CloseIdleConnections()
	}
	_ = r.hs.Close() // listener and connections; nothing to flush
	<-r.served
}

func (r *serveRunner) removeWAL() {
	if r.walDir != "" {
		_ = os.RemoveAll(r.walDir) // scratch data under the benchmark's out dir
	}
}

func (r *serveRunner) close() error {
	r.stopListening()
	err := r.srv.Close()
	r.removeWAL()
	return err
}

// flowAPI is the surface a closed-loop client drives. Two
// implementations: the typed HTTP client, and the server's exported
// methods called in-process — the same ops over both is how the traced
// pass isolates what the http layer adds.
type flowAPI interface {
	create(ctx context.Context, req server.FlowRequest) (server.FlowInfo, error)
	release(ctx context.Context, id int64) error
	network(ctx context.Context) (server.NetworkState, error)
	fault(ctx context.Context, link int, restore bool) error
}

type httpAPI struct{ c *client.Client }

func (a httpAPI) create(ctx context.Context, req server.FlowRequest) (server.FlowInfo, error) {
	return a.c.CreateFlow(ctx, req)
}
func (a httpAPI) release(ctx context.Context, id int64) error {
	_, err := a.c.ReleaseFlow(ctx, id)
	return err
}
func (a httpAPI) network(ctx context.Context) (server.NetworkState, error) { return a.c.Network(ctx) }
func (a httpAPI) fault(ctx context.Context, link int, restore bool) error {
	req := server.FaultRequest{Kind: network.FaultEdgeDown.String(), Link: link}
	var err error
	if restore {
		_, err = a.c.RestoreFault(ctx, req)
	} else {
		_, err = a.c.ApplyFault(ctx, req)
	}
	return err
}

type inprocAPI struct{ s *server.Server }

func (a inprocAPI) create(ctx context.Context, req server.FlowRequest) (server.FlowInfo, error) {
	return a.s.Submit(ctx, req)
}
func (a inprocAPI) release(_ context.Context, id int64) error {
	_, err := a.s.Release(id)
	return err
}
func (a inprocAPI) network(context.Context) (server.NetworkState, error) {
	return a.s.NetworkState(), nil
}
func (a inprocAPI) fault(_ context.Context, link int, restore bool) error {
	f := network.Fault{Kind: network.FaultEdgeDown, Link: graph.EdgeID(link)}
	var err error
	if restore {
		_, err = a.s.RestoreFault(f)
	} else {
		_, err = a.s.ApplyFault(f)
	}
	return err
}

// isReject reports whether an admission error is the program's correct
// "no placement exists" answer (HTTP 422) rather than a malfunction.
func isReject(err error) bool {
	var api *client.APIError
	if errors.As(err, &api) {
		return api.StatusCode == http.StatusUnprocessableEntity
	}
	return errors.Is(err, core.ErrNoEmbedding)
}

// round drives the ops over HTTP; see replay for the in-process variant.
func (r *serveRunner) round(ops []op, faults []faultEvent, tr *tracer) (roundResult, error) {
	apis := make([]flowAPI, len(r.clients))
	for i, c := range r.clients {
		apis[i] = httpAPI{c}
	}
	return r.replay(apis, spanNames{"client.create_flow", "client.release_flow"}, ops, faults, tr)
}

// spanNames are the span names of one replay leg's two calls.
type spanNames struct{ create, release string }

// clientResult is one closed-loop client's share of a round.
type clientResult struct {
	res      roundResult
	standing []int64
	downLink int // link still down at the end of the loop, or -1
	err      error
}

// replay runs one round: client c sends ops c, c+C, c+2C, … and sends the
// next only when the previous reply has arrived. Client 0 also plays the
// fault schedule.
func (r *serveRunner) replay(apis []flowAPI, names spanNames, ops []op, faults []faultEvent, tr *tracer) (roundResult, error) {
	res := roundResult{Ops: len(ops), Costs: make([]float64, len(ops))}
	parts := make([]clientResult, len(apis))
	var wg sync.WaitGroup
	res.Before = sampleProc()
	start := time.Now()
	for c := range apis {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var fs []faultEvent
			if c == 0 {
				fs = faults
			}
			parts[c] = r.clientLoop(apis[c], names, c, len(apis), ops, fs, res.Costs, tr)
		}(c)
	}
	wg.Wait()
	res.closeWall(start)

	ctx := context.Background()
	for c, part := range parts {
		if part.err != nil {
			return res, part.err
		}
		res.Accepted += part.res.Accepted
		res.Errors += part.res.Errors
		res.CostSum += part.res.CostSum
		res.Lat = append(res.Lat, part.res.Lat...)
		res.FaultLat = append(res.FaultLat, part.res.FaultLat...)
		// Untimed drain back to an empty ledger.
		if part.downLink >= 0 {
			if err := apis[c].fault(ctx, part.downLink, true); err != nil {
				return res, fmt.Errorf("drain: restore link %d: %w", part.downLink, err)
			}
		}
		for _, id := range part.standing {
			if err := apis[c].release(ctx, id); err != nil {
				return res, fmt.Errorf("drain: release flow %d: %w", id, err)
			}
		}
	}
	return res, r.quiesce()
}

func (r *serveRunner) clientLoop(api flowAPI, names spanNames, c, stride int, ops []op, faults []faultEvent, costs []float64, tr *tracer) clientResult {
	out := clientResult{downLink: -1}
	ctx := context.Background()
	nextFault := 0
	for k := c; k < len(ops); k += stride {
		if out.downLink >= 0 && k >= faults[nextFault-1].Restore {
			if err := api.fault(ctx, out.downLink, true); err != nil {
				out.res.Errors++
			}
			out.downLink = -1
		}
		if nextFault < len(faults) && k >= faults[nextFault].At {
			link, err := r.injectFault(ctx, api, faults[nextFault].Pick, &out.res)
			if err != nil {
				out.err = err
				return out
			}
			out.downLink = link
			nextFault++
		}
		req := ops[k].Req
		t0 := time.Now()
		sp := tr.begin(k, 0, names.create)
		info, err := api.create(ctx, req)
		tr.end(sp)
		out.res.Lat = append(out.res.Lat, msSince(t0))
		switch {
		case err == nil:
			out.res.Accepted++
			cost := info.Cost.Total + info.BackupCost.Total
			out.res.CostSum += cost
			costs[k] = cost // distinct k per client: no two goroutines share an element
			if req.TTLSeconds > 0 {
				continue // expires through the server's wheel
			}
			out.standing = append(out.standing, info.ID)
			if len(out.standing) > r.sp.Standing {
				id := out.standing[0]
				out.standing = out.standing[1:]
				sp = tr.begin(k, 0, names.release)
				err = api.release(ctx, id)
				tr.end(sp)
				if err != nil {
					out.res.Errors++
				}
			}
		case isReject(err):
		default:
			out.res.Errors++
		}
	}
	return out
}

// injectFault takes down one currently loaded link and returns it, or -1
// when nothing is loaded. How many flows a fault strands decides how much
// repair work follows, and link load is heavy-tailed, so the link is the
// pick-th of the middle half of the loaded links ranked by load: seeded,
// but never the one hub link or an almost idle one.
func (r *serveRunner) injectFault(ctx context.Context, api flowAPI, pick int, res *roundResult) (int, error) {
	st, err := api.network(ctx)
	if err != nil {
		return -1, fmt.Errorf("fault: read network: %w", err)
	}
	var loaded []server.LinkState
	for _, l := range st.Links {
		if l.Residual < l.Capacity {
			loaded = append(loaded, l)
		}
	}
	if len(loaded) == 0 {
		return -1, nil
	}
	sort.Slice(loaded, func(a, b int) bool {
		la, lb := loaded[a].Capacity-loaded[a].Residual, loaded[b].Capacity-loaded[b].Residual
		if la != lb {
			return la < lb
		}
		return loaded[a].ID < loaded[b].ID
	})
	mid := loaded[len(loaded)/4 : len(loaded)-len(loaded)/4]
	link := mid[pick%len(mid)].ID
	t0 := time.Now()
	err = api.fault(ctx, link, false)
	res.FaultLat = append(res.FaultLat, msSince(t0))
	if err != nil {
		return -1, fmt.Errorf("fault: edge-down %d: %w", link, err)
	}
	return link, nil
}

// quiesce waits, untimed, for the round's tail to finish inside the
// server: TTL flows expiring through the wheel, repairs and re-protects
// standing down after their flows were released.
func (r *serveRunner) quiesce() error {
	deadline := time.Now().Add(15 * time.Second)
	for r.srv.ActiveFlows() > 0 || r.srv.PendingRepairs() > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("server did not drain: %d flows active, %d repairs pending",
				r.srv.ActiveFlows(), r.srv.PendingRepairs())
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

func (r *serveRunner) check() error {
	ctx := context.Background()
	st, err := r.clients[0].Network(ctx)
	if err != nil {
		return fmt.Errorf("GET /v1/network: %w", err)
	}
	if err := sameNetwork(r.seed, st); err != nil {
		return err
	}
	if n := len(r.srv.Flows()); n != 0 {
		return fmt.Errorf("%d flows (tombstones included) left after the drain", n)
	}
	text, err := r.clients[0].Metrics(ctx)
	if err != nil {
		return fmt.Errorf("GET /metrics: %w", err)
	}
	sc, err := parseProm(text)
	if err != nil {
		return err
	}
	if v, err := sc.get("dagsfc_protect_backups_active"); err != nil || v != 0 {
		return fmt.Errorf("dagsfc_protect_backups_active = %v (%v), want 0", v, err)
	}
	// Registered on the first panic only: absent means none.
	if v := sc.values["dagsfc_server_worker_panics_total"]; v != 0 {
		return fmt.Errorf("dagsfc_server_worker_panics_total = %v, want 0", v)
	}
	return nil
}

// sameNetwork compares two GET /v1/network answers float-exactly and
// requires the second to hold no active flow.
func sameNetwork(seed, got server.NetworkState) error {
	if got.ActiveFlows != 0 {
		return fmt.Errorf("%d flows still active", got.ActiveFlows)
	}
	return sameResiduals(seed, got)
}

func sameResiduals(want, got server.NetworkState) error {
	if len(want.Links) != len(got.Links) || len(want.Instances) != len(got.Instances) {
		return fmt.Errorf("network shape changed")
	}
	for i, l := range want.Links {
		if got.Links[i] != l {
			return fmt.Errorf("link %d is %+v, want %+v", l.ID, got.Links[i], l)
		}
	}
	for i, in := range want.Instances {
		if got.Instances[i] != in {
			return fmt.Errorf("instance is %+v, want %+v", got.Instances[i], in)
		}
	}
	return nil
}

// recoveryCheck kills the server with flows standing and restarts it on
// the same WAL directory: the recovered flow table and residuals must
// equal what was live at the kill. It returns how long server.New took to
// recover and how many log records it replayed. The runner serves the
// recovered server afterwards.
func (r *serveRunner) recoveryCheck(ops []op) (recoverMs, records float64, err error) {
	ctx := context.Background()
	n := r.sp.Standing * r.sp.Clients
	if n > len(ops) {
		n = len(ops)
	}
	for _, o := range ops[:n] {
		req := o.Req
		req.TTLSeconds = 0 // an expiry while the server is down would differ by design
		if _, err := r.srv.Submit(ctx, req); err != nil {
			return 0, 0, fmt.Errorf("recovery: submit: %w", err)
		}
	}
	liveFlows, liveNet := r.srv.Flows(), r.srv.NetworkState()
	before, err := scrapeRegistry()
	if err != nil {
		return 0, 0, err
	}
	r.stopListening()
	r.srv.Crash()
	t0 := time.Now()
	recovered, err := server.New(r.cfg)
	recoverMs = msSince(t0)
	if err != nil {
		return 0, 0, fmt.Errorf("recovery: restart on %s: %w", r.walDir, err)
	}
	r.srv = recovered
	if err := r.listen(); err != nil {
		return 0, 0, err
	}
	after, err := scrapeRegistry()
	if err != nil {
		return 0, 0, err
	}
	if records, err = (promDelta{before, after}).counter("dagsfc_wal_recovery_replayed_total"); err != nil {
		return 0, 0, err
	}
	gotFlows, gotNet := recovered.Flows(), recovered.NetworkState()
	if gotNet.ActiveFlows != liveNet.ActiveFlows {
		return 0, 0, fmt.Errorf("recovery: %d flows active, %d were live", gotNet.ActiveFlows, liveNet.ActiveFlows)
	}
	if err := sameResiduals(liveNet, gotNet); err != nil {
		return 0, 0, fmt.Errorf("recovery: %w", err)
	}
	if len(gotFlows) != len(liveFlows) {
		return 0, 0, fmt.Errorf("recovery: %d flows in the table, %d were live", len(gotFlows), len(liveFlows))
	}
	for i, want := range liveFlows {
		got := gotFlows[i]
		// Created goes through JSON in the log: compare the instant, not
		// the struct (monotonic reading, location pointer).
		if !got.Created.Equal(want.Created) {
			return 0, 0, fmt.Errorf("recovery: flow %d created %v, was %v", want.ID, got.Created, want.Created)
		}
		got.Created, want.Created = time.Time{}, time.Time{}
		if got != want {
			return 0, 0, fmt.Errorf("recovery: flow %+v, was %+v", got, want)
		}
	}
	for _, f := range gotFlows {
		if _, err := recovered.Release(f.ID); err != nil {
			return 0, 0, fmt.Errorf("recovery: release: %w", err)
		}
	}
	if err := r.quiesce(); err != nil {
		return 0, 0, err
	}
	return recoverMs, records, r.check()
}
