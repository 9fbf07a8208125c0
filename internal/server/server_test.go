package server_test

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dagsfc/internal/core"
	"dagsfc/internal/graph"
	"dagsfc/internal/journal"
	"dagsfc/internal/netgen"
	"dagsfc/internal/network"
	"dagsfc/internal/server"
	"dagsfc/internal/server/client"
	"dagsfc/internal/sfc"
	"dagsfc/internal/sfcgen"
	"dagsfc/internal/telemetry"
)

// tinyNet: line 0-1-2 with a single f(1) instance of capacity 2.
func tinyNet() *network.Network {
	g := graph.New(3)
	g.MustAddEdge(0, 1, 1, 100)
	g.MustAddEdge(1, 2, 1, 100)
	net := network.New(g, network.Catalog{N: 1})
	net.MustAddInstance(1, 1, 10, 2)
	return net
}

func lineRequest(rate float64) server.FlowRequest {
	return server.FlowRequest{SFC: "1", Src: 0, Dst: 2, Rate: rate, Size: 1}
}

func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *client.Client) {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		_ = srv.Close()
	})
	return srv, client.New(hs.URL, hs.Client())
}

// residuals flattens a NetworkState into the comparable part: every link
// and instance residual. Rate-1 flows reserve integer amounts, so equality
// after full release is exact.
func residuals(st server.NetworkState) []float64 {
	out := make([]float64, 0, len(st.Links)+len(st.Instances))
	for _, l := range st.Links {
		out = append(out, l.Residual)
	}
	for _, i := range st.Instances {
		out = append(out, i.Residual)
	}
	return out
}

// seriesValue reads a label-free family of the process-wide registry: a
// gauge the server publishes, or a counter; 0 while it is unlisted.
func seriesValue(name string) float64 {
	s, _ := telemetry.Default().Snapshot().Series(name)
	return s.Value
}

func equalResiduals(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestServerEndToEndHTTP(t *testing.T) {
	_, cl := newTestServer(t, server.Config{Net: tinyNet()})
	ctx := context.Background()

	seed, err := cl.Network(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}

	info, err := cl.CreateFlow(ctx, lineRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	if info.ID == 0 || info.SFC != "1" || info.Cost.Total <= 0 {
		t.Fatalf("bad flow info: %+v", info)
	}

	// The residual network must show the reservation.
	st, err := cl.Network(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.ActiveFlows != 1 {
		t.Fatalf("active flows = %d, want 1", st.ActiveFlows)
	}
	if equalResiduals(residuals(seed), residuals(st)) {
		t.Fatal("network unchanged after commit")
	}

	got, err := cl.Flow(ctx, info.ID)
	if err != nil || got.ID != info.ID {
		t.Fatalf("Flow(%d) = %+v, %v", info.ID, got, err)
	}
	list, err := cl.Flows(ctx)
	if err != nil || len(list) != 1 {
		t.Fatalf("Flows = %+v, %v", list, err)
	}

	// Release restores the seed residuals exactly.
	if _, err := cl.ReleaseFlow(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	st, err = cl.Network(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.ActiveFlows != 0 || !equalResiduals(residuals(seed), residuals(st)) {
		t.Fatalf("residuals not restored: seed %v, got %v", residuals(seed), residuals(st))
	}

	// The telemetry endpoint reports the traffic we just generated.
	metrics, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, "dagsfc_server_requests_total") {
		t.Fatal("metrics missing dagsfc_server_requests_total")
	}
	if !strings.Contains(metrics, `outcome="accepted"`) || !strings.Contains(metrics, `route="flows.create"`) {
		t.Fatal("metrics missing accepted flows.create sample")
	}
}

func TestServerHTTPErrors(t *testing.T) {
	srv, cl := newTestServer(t, server.Config{Net: tinyNet()})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	ctx := context.Background()

	cases := []struct {
		name string
		req  server.FlowRequest
		code int
		says string // what the message must name
	}{
		{"empty", server.FlowRequest{Src: 0, Dst: 2, Rate: 1, Size: 1}, http.StatusBadRequest, ""},
		// Would have parsed to no layers and been admitted as a flow with no
		// VNFs.
		{"blank sfc", server.FlowRequest{SFC: "  ", Src: 0, Dst: 2, Rate: 1, Size: 1}, http.StatusBadRequest, "one of sfc or chain is required"},
		{"both", server.FlowRequest{SFC: "1", Chain: []int{1}, Src: 0, Dst: 2, Rate: 1, Size: 1}, http.StatusBadRequest, ""},
		{"bad sfc", server.FlowRequest{SFC: "nope", Src: 0, Dst: 2, Rate: 1, Size: 1}, http.StatusBadRequest, ""},
		{"bad alg", server.FlowRequest{SFC: "1", Src: 0, Dst: 2, Rate: 1, Size: 1, Alg: "nope"}, http.StatusBadRequest, ""},
		// A name the registry does not hold is refused, not defaulted.
		{"sa unregistered", server.FlowRequest{SFC: "1", Src: 0, Dst: 2, Rate: 1, Size: 1, Alg: "sa"}, http.StatusBadRequest, `unknown algorithm "sa"`},
		{"bad ttl", server.FlowRequest{SFC: "1", Src: 0, Dst: 2, Rate: 1, Size: 1, TTLSeconds: -1}, http.StatusBadRequest, "ttl_seconds"},
		// Would have overflowed time.Duration to a negative TTL: a flow
		// submitted with a TTL that never expires.
		{"overflowing ttl", server.FlowRequest{SFC: "1", Src: 0, Dst: 2, Rate: 1, Size: 1, TTLSeconds: 9.3e9}, http.StatusBadRequest, "ttl_seconds"},
		// Would have reached ChainToDAG as "no width cap".
		{"negative width", server.FlowRequest{Chain: []int{1}, MaxWidth: -1, Src: 0, Dst: 2, Rate: 1, Size: 1}, http.StatusBadRequest, "max_width"},
		{"bad node", server.FlowRequest{SFC: "1", Src: 0, Dst: 99, Rate: 1, Size: 1}, http.StatusBadRequest, ""},
		{"no embedding", server.FlowRequest{SFC: "1", Src: 0, Dst: 2, Rate: 100, Size: 1}, http.StatusUnprocessableEntity, ""},
	}
	for _, tc := range cases {
		_, err := cl.CreateFlow(ctx, tc.req)
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != tc.code || !strings.Contains(apiErr.Message, tc.says) {
			t.Errorf("%s: got %v, want status %d naming %q", tc.name, err, tc.code, tc.says)
		}
	}
	// The longest TTL a duration can hold is still a TTL.
	info, err := cl.CreateFlow(ctx, server.FlowRequest{SFC: "1", Src: 0, Dst: 2, Rate: 1, Size: 1, TTLSeconds: 9.2e9})
	if err != nil || info.ExpiresAt == nil || !info.ExpiresAt.After(info.Created) {
		t.Errorf("ttl_seconds 9.2e9: %+v, %v; want a flow that expires after it was created", info, err)
	}

	var apiErr *client.APIError
	if _, err := cl.Flow(ctx, 42); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Errorf("get unknown flow: %v", err)
	}
	if _, err := cl.ReleaseFlow(ctx, 42); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Errorf("release unknown flow: %v", err)
	}
	resp, err := http.Get(hs.URL + "/v1/flows/xyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-integer id: status %d, want 400", resp.StatusCode)
	}
}

func TestServerChainStandardization(t *testing.T) {
	srv, cl := newTestServer(t, server.Config{Net: tinyNet()})
	info, err := cl.CreateFlow(context.Background(), server.FlowRequest{
		Chain: []int{1}, Src: 0, Dst: 2, Rate: 1, Size: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.SFC != "1" {
		t.Fatalf("standardized SFC = %q, want %q", info.SFC, "1")
	}
	if srv.ActiveFlows() != 1 {
		t.Fatalf("active flows = %d, want 1", srv.ActiveFlows())
	}
}

// TestServerHammerDrainsToSeed mirrors TestChurnLedgerDrainsToEmpty
// through the HTTP API: many goroutines embed, release and read the
// network concurrently; once everything is released the ledger must be
// identical to the seed residuals, and the gauges must say so — the
// process-wide queue depth back where it started, no active flow, no
// backup. Run it under -race.
func TestServerHammerDrainsToSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ncfg := netgen.Default()
	ncfg.Nodes = 40
	ncfg.VNFKinds = 6
	ncfg.InstanceCapacity = 5
	net := netgen.MustGenerate(ncfg, rng)

	srv, cl := newTestServer(t, server.Config{Net: net, Workers: 4, QueueDepth: 128})
	ctx := context.Background()

	seed, err := cl.Network(ctx)
	if err != nil {
		t.Fatal(err)
	}
	depth := seriesValue(telemetry.MetricServerQueueDepth)

	// Pre-generate every request in one goroutine: rand.Rand is not
	// concurrency-safe, and rate-1 integer demands keep release exact.
	const goroutines, perG = 8, 12
	reqs := make([][]server.FlowRequest, goroutines)
	scfg := sfcgen.Config{Size: 3, LayerWidth: 3, VNFKinds: 6}
	for g := range reqs {
		reqs[g] = make([]server.FlowRequest, perG)
		for i := range reqs[g] {
			dag := sfcgen.MustGenerate(scfg, rng)
			reqs[g][i] = server.FlowRequest{
				SFC: sfc.Format(dag),
				Src: rng.Intn(ncfg.Nodes), Dst: rng.Intn(ncfg.Nodes),
				Rate: 1, Size: 1,
			}
		}
	}

	var accepted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(batch []server.FlowRequest) {
			defer wg.Done()
			for i, req := range batch {
				info, err := cl.CreateFlow(ctx, req)
				if err != nil {
					var apiErr *client.APIError
					if !errors.As(err, &apiErr) {
						t.Errorf("create: %v", err)
					}
					continue
				}
				accepted.Add(1)
				// Interleave releases and reads with the embeds.
				if i%2 == 0 {
					if _, err := cl.ReleaseFlow(ctx, info.ID); err != nil {
						t.Errorf("release %d: %v", info.ID, err)
					}
				}
				if i%3 == 0 {
					if _, err := cl.Network(ctx); err != nil {
						t.Errorf("network read: %v", err)
					}
				}
			}
		}(reqs[g])
	}
	wg.Wait()

	if accepted.Load() == 0 {
		t.Fatal("hammer admitted nothing")
	}

	// Release everything still active, then the ledger must be the seed.
	remaining, err := cl.Flows(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range remaining {
		if _, err := cl.ReleaseFlow(ctx, f.ID); err != nil {
			t.Fatalf("final release %d: %v", f.ID, err)
		}
	}
	st, err := cl.Network(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.ActiveFlows != 0 {
		t.Fatalf("active flows = %d after full release", st.ActiveFlows)
	}
	if !equalResiduals(residuals(seed), residuals(st)) {
		t.Fatal("ledger did not drain to seed residuals")
	}
	if srv.ActiveFlows() != 0 {
		t.Fatalf("server reports %d active flows", srv.ActiveFlows())
	}
	if got := seriesValue(telemetry.MetricServerQueueDepth); got != depth {
		t.Fatalf("queue depth gauge = %v after the hammer, want %v as before it", got, depth)
	}
	active, backups := seriesValue(telemetry.MetricServerActiveFlows), seriesValue(telemetry.MetricProtectBackupsActive)
	if active != 0 || backups != 0 {
		t.Fatalf("active flows / backups gauges = %v / %v after full release, want 0 / 0", active, backups)
	}
}

// blockingEmbedder embeds with MBBE but first parks on gate, signalling
// entered, so tests can hold a slot at a known point.
func blockingEmbedder(entered chan<- struct{}, gate <-chan struct{}) server.Embedder {
	return func(p *core.Problem) (*core.Result, error) {
		entered <- struct{}{}
		<-gate
		return core.EmbedMBBE(p)
	}
}

// timeoutServer serves tinyNet with one slot, a 50 ms deadline and a
// "block" algorithm parked on gate, behind a half-open breaker: the next
// request holds its probe slot.
func timeoutServer(t *testing.T) (srv *server.Server, cl *client.Client, entered, gate chan struct{}) {
	t.Helper()
	entered, gate = make(chan struct{}, 1), make(chan struct{})
	srv, cl = newTestServer(t, server.Config{
		Net: tinyNet(), Workers: 1, RequestTimeout: 50 * time.Millisecond,
		BreakerFailures: 1, BreakerCooldown: time.Millisecond,
		Embedders: map[string]server.Embedder{"block": blockingEmbedder(entered, gate)},
	})
	// An infeasible request trips the breaker; the cooldown then passes.
	if _, err := srv.Submit(context.Background(), lineRequest(1000)); !errors.Is(err, core.ErrNoEmbedding) {
		t.Fatalf("tripping request: %v, want ErrNoEmbedding", err)
	}
	time.Sleep(5 * time.Millisecond)
	return srv, cl, entered, gate
}

// releaseLate lets the parked embedder go well past the request's deadline.
func releaseLate(entered, gate chan struct{}) {
	go func() {
		<-entered
		time.Sleep(100 * time.Millisecond)
		close(gate)
	}()
}

// checkTimedOut asserts what the timed-out request left behind: a rejected
// event on its timeline, the probe slot free (the next request is admitted
// and, as the probe, closes the breaker), and the ledger at seed.
func checkTimedOut(t *testing.T, srv *server.Server, seed []float64) {
	t.Helper()
	var rejected bool
	for _, ev := range srv.Journal().Flow(2, 0) { // flow 1 tripped the breaker
		rejected = rejected || ev.Type == journal.TypeRejected && strings.HasPrefix(ev.Err, server.ErrTimeout.Error())
	}
	if !rejected {
		t.Fatal("the timed-out request's timeline has no rejected event")
	}
	if got := residuals(srv.NetworkState()); srv.ActiveFlows() != 0 || !equalResiduals(seed, got) {
		t.Fatal("timed-out request mutated the ledger")
	}
	info, err := srv.Submit(context.Background(), lineRequest(1))
	if err != nil {
		t.Fatalf("request after the timeout: %v, want the probe slot free", err)
	}
	if _, err := srv.Release(info.ID); err != nil {
		t.Fatal(err)
	}
}

func TestServerTimeoutDoesNotCommit(t *testing.T) {
	srv, _, entered, gate := timeoutServer(t)
	seed := residuals(srv.NetworkState())
	req := lineRequest(1)
	req.Alg = "block"
	// The embedder returns after the deadline: the request answers then,
	// and commits nothing nobody was told about.
	releaseLate(entered, gate)
	if _, err := srv.Submit(context.Background(), req); !errors.Is(err, server.ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
	checkTimedOut(t, srv, seed)
}

func TestServerTimeoutOverHTTPMapsTo504(t *testing.T) {
	srv, cl, entered, gate := timeoutServer(t)
	seed := residuals(srv.NetworkState())
	req := lineRequest(1)
	req.Alg = "block"
	releaseLate(entered, gate)
	_, err := cl.CreateFlow(context.Background(), req)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("got %v, want 504", err)
	}
	checkTimedOut(t, srv, seed)
}

func TestServerTTLAutoRelease(t *testing.T) {
	srv, cl := newTestServer(t, server.Config{Net: tinyNet()})
	ctx := context.Background()
	seed, err := cl.Network(ctx)
	if err != nil {
		t.Fatal(err)
	}

	req := lineRequest(1)
	req.TTLSeconds = 0.05
	info, err := cl.CreateFlow(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if info.ExpiresAt == nil {
		t.Fatal("TTL flow has no ExpiresAt")
	}

	waitFor(t, func() bool { return srv.ActiveFlows() == 0 })
	st, err := cl.Network(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !equalResiduals(residuals(seed), residuals(st)) {
		t.Fatal("expiry did not restore the seed residuals")
	}
	var apiErr *client.APIError
	if _, err := cl.Flow(ctx, info.ID); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("expired flow still visible: %v", err)
	}
}

func TestServerDrain(t *testing.T) {
	srv, cl := newTestServer(t, server.Config{Net: tinyNet()})
	ctx := context.Background()
	if _, err := cl.CreateFlow(ctx, lineRequest(1)); err != nil {
		t.Fatal(err)
	}
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(ctx, lineRequest(1)); !errors.Is(err, server.ErrDraining) {
		t.Fatalf("submit while draining: got %v, want ErrDraining", err)
	}
	if err := cl.Healthz(ctx); err == nil {
		t.Fatal("healthz should fail while draining")
	}
	// Drain is about requests, not flows: the committed flow survives.
	if srv.ActiveFlows() != 1 {
		t.Fatalf("active flows = %d, want 1 after drain", srv.ActiveFlows())
	}
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

func TestServerCommitConflictRetries(t *testing.T) {
	net := tinyNet()
	// A deliberately stale embedder: it solved the problem once against
	// the seed ledger and keeps returning that same rate-2 placement, so
	// whichever of two concurrent submissions commits second must fail
	// validation, burn its retry on a fresh (still stale) embed, and
	// surface ErrCommitConflict.
	seedRes, err := core.EmbedMBBE(&core.Problem{
		Net: net, SFC: sfc.DAGSFC{Layers: []sfc.Layer{{VNFs: []network.VNFID{1}}}},
		Src: 0, Dst: 2, Rate: 2, Size: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	stale := func(p *core.Problem) (*core.Result, error) {
		calls.Add(1)
		return seedRes, nil
	}
	srv, _ := newTestServer(t, server.Config{
		Net: net, Workers: 2,
		Embedders: map[string]server.Embedder{"stale": stale},
	})

	req := lineRequest(2)
	req.Alg = "stale"
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { _, err := srv.Submit(context.Background(), req); errs <- err }()
	}
	var conflicts, ok int
	for i := 0; i < 2; i++ {
		switch err := <-errs; {
		case err == nil:
			ok++
		case errors.Is(err, server.ErrCommitConflict):
			conflicts++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if ok != 1 || conflicts != 1 {
		t.Fatalf("ok/conflict = %d/%d, want 1/1", ok, conflicts)
	}
	// Initial embed per submission plus one retry for the loser.
	if got := calls.Load(); got != 3 {
		t.Fatalf("embedder called %d times, want 3", got)
	}
	if srv.ActiveFlows() != 1 {
		t.Fatalf("active flows = %d, want 1", srv.ActiveFlows())
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

// TestWorkersBoundEveryEmbed: Workers bounds every embed the server runs,
// requests and repairs together. A counting embedder records the peak of
// concurrent embeds while 4 × Workers clients submit and node faults strand
// flows that the restore controller repairs meanwhile.
func TestWorkersBoundEveryEmbed(t *testing.T) {
	const workers, clients, perClient = 2, 8, 12
	var running, peak atomic.Int64
	count := func(p *core.Problem) (*core.Result, error) {
		n := running.Add(1)
		defer running.Add(-1)
		for old := peak.Load(); n > old && !peak.CompareAndSwap(old, n); old = peak.Load() {
		}
		time.Sleep(200 * time.Microsecond)
		return core.EmbedMBBE(p)
	}
	rng := rand.New(rand.NewSource(3))
	ncfg := netgen.Default()
	ncfg.Nodes = 30
	ncfg.VNFKinds = 5
	net := netgen.MustGenerate(ncfg, rng)
	srv, err := server.New(fastRepairs(server.Config{
		Net: net, Workers: workers, QueueDepth: clients * perClient,
		Embedders: map[string]server.Embedder{"count": count},
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reqs := make([][]server.FlowRequest, clients)
	scfg := sfcgen.Config{Size: 3, LayerWidth: 2, VNFKinds: 5}
	for c := range reqs {
		for i := 0; i < perClient; i++ {
			reqs[c] = append(reqs[c], server.FlowRequest{
				SFC: sfc.Format(sfcgen.MustGenerate(scfg, rng)),
				Src: rng.Intn(ncfg.Nodes), Dst: rng.Intn(ncfg.Nodes), Rate: 1, Size: 1, Alg: "count",
			})
		}
	}
	var wg sync.WaitGroup
	for _, batch := range reqs {
		wg.Add(1)
		go func(batch []server.FlowRequest) {
			defer wg.Done()
			for _, req := range batch {
				if _, err := srv.Submit(context.Background(), req); err != nil &&
					!errors.Is(err, core.ErrNoEmbedding) && !errors.Is(err, server.ErrCommitConflict) {
					t.Errorf("submit: %v", err)
				}
			}
		}(batch)
	}
	waitFor(t, func() bool { return srv.ActiveFlows() >= 8 })
	var downs []network.Fault
	for v := graph.NodeID(0); v < 6; v++ {
		f := network.Fault{Kind: network.FaultNodeDown, Node: v}
		if _, err := srv.ApplyFault(f); err != nil {
			t.Fatal(err)
		}
		downs = append(downs, f)
	}
	wg.Wait()
	waitFor(t, func() bool { return srv.PendingRepairs() == 0 })
	for _, f := range downs {
		if _, err := srv.RestoreFault(f); err != nil {
			t.Fatal(err)
		}
	}

	attempts := 0
	events, _, _ := srv.Journal().Since(0, 0)
	for _, ev := range events {
		if ev.Type == journal.TypeRepairAttempt {
			attempts++
		}
	}
	if attempts == 0 {
		t.Fatal("no flow was stranded and repaired: the fixture proves nothing about repairs")
	}
	if got := peak.Load(); got < 1 || got > workers {
		t.Fatalf("%d embeds ran at once, want at most Workers = %d", got, workers)
	}
}
