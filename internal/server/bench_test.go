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
func benchServer(b *testing.B, walDir string) (*server.Server, []server.FlowRequest) {
	b.Helper()
	rng := rand.New(rand.NewSource(5))
	ncfg := netgen.Default()
	ncfg.Nodes = 50
	ncfg.VNFKinds = int(sfc.TrafficShaper)
	srv, err := server.New(server.Config{Net: netgen.MustGenerate(ncfg, rng), Workers: 2, WALDir: walDir, WALSync: "commit"})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = srv.Close() })
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

// BenchmarkAdmitRelease is the fixed cost of one admission without a
// socket: Submit and Release called in-process, durability off. Its
// allocs/op are the server's own share of the repository benchmark's
// allocs_per_op (everything but net/http, the client and the WAL).
func BenchmarkAdmitRelease(b *testing.B) {
	srv, reqs := benchServer(b, "")
	admitRelease(b, srv, reqs)
}

// BenchmarkAdmitReleaseDurable is BenchmarkAdmitRelease with the WAL on and
// an fsync per commit, as on serve-durable: what framing the two
// transitions into records (flowstate.Encoder) and logging them adds.
func BenchmarkAdmitReleaseDurable(b *testing.B) {
	srv, reqs := benchServer(b, b.TempDir())
	admitRelease(b, srv, reqs)
}

// admitRelease is the measured loop of the in-process benchmarks: admit
// the next request of the cycle, release it.
func admitRelease(b *testing.B, srv *server.Server, reqs []server.FlowRequest) {
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		info, err := srv.Submit(ctx, reqs[i%len(reqs)])
		if err != nil {
			b.Fatal(err)
		}
		if _, err := srv.Release(info.ID); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdmitReleaseProtected is BenchmarkAdmitRelease for the traffic
// of the repository benchmark's serve-protect-faults: DAG-SFC strings the
// server parses itself, each admitted with a disjoint backup — two embeds,
// the second on a banned view — and released. Requests whose endpoints
// cannot carry a disjoint pair are dropped from the cycle up front, so
// every op is an admission.
func BenchmarkAdmitReleaseProtected(b *testing.B) {
	srv, chains := benchServer(b, "")
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
			b.Fatal(err)
		}
		if _, err := srv.Release(info.ID); err != nil {
			b.Fatal(err)
		}
		reqs = append(reqs, req)
	}
	if len(reqs) < len(chains)/2 {
		b.Fatalf("only %d of %d requests could be protected", len(reqs), len(chains))
	}
	admitRelease(b, srv, reqs)
}

// BenchmarkAdmitReleaseHTTP is the same pair over loopback HTTP through the
// typed client on one kept-alive connection: what a request costs end to
// end, both sides of the socket counted.
func BenchmarkAdmitReleaseHTTP(b *testing.B) {
	srv, reqs := benchServer(b, "")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		_ = hs.Serve(ln) // ErrServerClosed, by the Cleanup below
		close(served)
	}()
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	b.Cleanup(func() {
		tr.CloseIdleConnections()
		_ = hs.Close()
		<-served
	})
	cl := client.New("http://"+ln.Addr().String(), &http.Client{Transport: tr})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		info, err := cl.CreateFlow(ctx, reqs[i%len(reqs)])
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cl.ReleaseFlow(ctx, info.ID); err != nil {
			b.Fatal(err)
		}
	}
}
