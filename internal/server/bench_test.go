package server_test

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"net/http"
	"testing"

	"dagsfc/internal/core"
	"dagsfc/internal/netgen"
	"dagsfc/internal/server"
	"dagsfc/internal/server/client"
	"dagsfc/internal/sfc"
	"dagsfc/internal/sfcgen"
)

// benchServer starts a server and returns it with a fixed cycle of chain requests over a 50-node generated
// network — the shape of the repository benchmark's serve-durable traffic:
// flat chains of distinct stock categories the server standardizes itself.
// A non-empty walDir turns the WAL on there, with an fsync per commit.
func benchServer(tb testing.TB, walDir string) (*server.Server, []server.FlowRequest) {
	tb.Helper()
	rng := rand.New(rand.NewSource(5))
	ncfg := netgen.Default()
	ncfg.Nodes = 50
	ncfg.VNFKinds = int(sfc.TrafficShaper)
	srv, err := server.New(server.Config{Net: netgen.MustGenerate(ncfg, rng), Workers: 2, WALDir: walDir, WALSync: "commit"})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = srv.Close() })
	reqs := make([]server.FlowRequest, 64)
	for i := range reqs {
		perm := rng.Perm(int(sfc.TrafficShaper))
		chain := make([]int, 3+rng.Intn(4))
		for k := range chain {
			chain[k] = perm[k] + 1
		}
		reqs[i] = server.FlowRequest{
			Chain: chain, Src: rng.Intn(ncfg.Nodes), Dst: rng.Intn(ncfg.Nodes), Rate: 1, Size: 1,
		}
	}
	return srv, reqs
}

// admitRelease is one op of the in-process loops: admit the next request of
// the cycle, release it.
func admitRelease(tb testing.TB, srv *server.Server, reqs []server.FlowRequest) func() {
	ctx, i := context.Background(), 0
	return func() {
		info, err := srv.Submit(ctx, reqs[i%len(reqs)])
		i++
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := srv.Release(info.ID); err != nil {
			tb.Fatal(err)
		}
	}
}

// plainLoop is the fixed cost of one admission without a socket: Submit
// and Release called in-process, durability off. Its allocations are the
// server's own share of the repository benchmark's allocs_per_op
// (everything but net/http, the client and the WAL).
func plainLoop(tb testing.TB) func() {
	srv, reqs := benchServer(tb, "")
	return admitRelease(tb, srv, reqs)
}

// durableLoop is plainLoop with the WAL on and an fsync per commit, as on
// serve-durable: what framing the two transitions into records
// (flowstate.Encoder) and logging them adds.
func durableLoop(tb testing.TB) func() {
	srv, reqs := benchServer(tb, tb.TempDir())
	return admitRelease(tb, srv, reqs)
}

// protectedLoop is plainLoop for the traffic of the repository benchmark's
// serve-protect-faults: DAG-SFC strings the server parses itself, each
// admitted with a disjoint backup — two embeds, the second on a banned view
// — and released. Requests whose endpoints cannot carry a disjoint pair are
// dropped from the cycle up front, so every op is an admission.
func protectedLoop(tb testing.TB) func() {
	srv, chains := benchServer(tb, "")
	rng := rand.New(rand.NewSource(6))
	ctx := context.Background()
	var reqs []server.FlowRequest
	for _, req := range chains {
		dag := sfcgen.MustGenerate(sfcgen.Config{Size: 4 + rng.Intn(3), LayerWidth: 3, VNFKinds: int(sfc.TrafficShaper)}, rng)
		req.Chain, req.SFC, req.Protection = nil, sfc.Format(dag), server.ProtectionBackup
		info, err := srv.Submit(ctx, req)
		if errors.Is(err, core.ErrNoEmbedding) {
			continue
		}
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := srv.Release(info.ID); err != nil {
			tb.Fatal(err)
		}
		reqs = append(reqs, req)
	}
	if len(reqs) < len(chains)/2 {
		tb.Fatalf("only %d of %d requests could be protected", len(reqs), len(chains))
	}
	return admitRelease(tb, srv, reqs)
}

// httpLoop is the same pair over loopback HTTP through the typed client on
// one kept-alive connection: what a request costs end to end, both sides of
// the socket counted.
func httpLoop(tb testing.TB) func() {
	srv, reqs := benchServer(tb, "")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		_ = hs.Serve(ln) // ErrServerClosed, by the Cleanup below
		close(served)
	}()
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	tb.Cleanup(func() {
		tr.CloseIdleConnections()
		_ = hs.Close()
		<-served
	})
	cl := client.New("http://"+ln.Addr().String(), &http.Client{Transport: tr})
	ctx, i := context.Background(), 0
	return func() {
		info, err := cl.CreateFlow(ctx, reqs[i%len(reqs)])
		i++
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := cl.ReleaseFlow(ctx, info.ID); err != nil {
			tb.Fatal(err)
		}
	}
}

func BenchmarkAdmitRelease(b *testing.B)          { benchLoop(b, plainLoop(b)) }
func BenchmarkAdmitReleaseDurable(b *testing.B)   { benchLoop(b, durableLoop(b)) }
func BenchmarkAdmitReleaseProtected(b *testing.B) { benchLoop(b, protectedLoop(b)) }
func BenchmarkAdmitReleaseHTTP(b *testing.B)      { benchLoop(b, httpLoop(b)) }

func benchLoop(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestAdmitReleaseAllocations holds each admission loop to a ceiling on the
// objects one request allocates, averaged over a cycle of 64 once a cycle
// has warmed the server: in-process the pair reads 11, now and then 12; the
// WAL adds a record's framing (12, now and then 13); a protected admission
// its backup search (16, now and then 17); over HTTP, net/http's objects on
// both sides of the socket move the read by an object or two (171–172).
func TestAdmitReleaseAllocations(t *testing.T) {
	if server.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, c := range []struct {
		name    string
		loop    func(testing.TB) func()
		ceiling float64
	}{
		{"in-process", plainLoop, 12},
		{"durable", durableLoop, 13},
		{"protected", protectedLoop, 17},
		{"http", httpLoop, 175},
	} {
		op := c.loop(t)
		for range 64 { // one whole cycle: every request has grown the arenas
			op()
		}
		if got := testing.AllocsPerRun(64, op); got > c.ceiling {
			t.Errorf("%s: an admission and its release allocated %v objects, ceiling %v", c.name, got, c.ceiling)
		} else {
			t.Logf("%s: %v allocs per admit+release (ceiling %v)", c.name, got, c.ceiling)
		}
	}
}
