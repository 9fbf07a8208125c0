package server_test

import (
	"context"
	"math/rand"
	"net"
	"net/http"
	"testing"

	"dagsfc/internal/netgen"
	"dagsfc/internal/server"
	"dagsfc/internal/server/client"
	"dagsfc/internal/sfc"
)

// benchServer starts a server and returns it with a fixed cycle of chain requests over a 50-node generated
// network — the shape of the repository benchmark's serve-durable traffic:
// flat chains of distinct stock categories the server standardizes itself.
func benchServer(b *testing.B) (*server.Server, []server.FlowRequest) {
	b.Helper()
	rng := rand.New(rand.NewSource(5))
	ncfg := netgen.Default()
	ncfg.Nodes = 50
	ncfg.VNFKinds = int(sfc.TrafficShaper)
	srv, err := server.New(server.Config{Net: netgen.MustGenerate(ncfg, rng), Workers: 2})
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
	srv, reqs := benchServer(b)
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

// BenchmarkAdmitReleaseHTTP is the same pair over loopback HTTP through the
// typed client on one kept-alive connection: what a request costs end to
// end, both sides of the socket counted.
func BenchmarkAdmitReleaseHTTP(b *testing.B) {
	srv, reqs := benchServer(b)
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
