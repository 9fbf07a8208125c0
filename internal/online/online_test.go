package online

import (
	"errors"
	"math/rand"
	"testing"

	"dagsfc/internal/baseline"
	"dagsfc/internal/core"
	"dagsfc/internal/graph"
	"dagsfc/internal/netgen"
	"dagsfc/internal/network"
	"dagsfc/internal/sfc"
	"dagsfc/internal/sfcgen"
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

func chainReq(rate float64) Request {
	return Request{
		SFC: sfc.DAGSFC{Layers: []sfc.Layer{{VNFs: []network.VNFID{1}}}},
		Src: 0, Dst: 2, Rate: rate, Size: 1,
	}
}

func TestRunDepletesCapacity(t *testing.T) {
	net := tinyNet()
	reqs := []Request{chainReq(1), chainReq(1), chainReq(1)}
	report, err := Run(net, reqs, core.EmbedMBBE)
	if err != nil {
		t.Fatal(err)
	}
	// The instance has capacity 2 at rate 1: exactly two flows fit.
	if report.Accepted != 2 || report.Rejected != 1 {
		t.Fatalf("accepted/rejected = %d/%d, want 2/1", report.Accepted, report.Rejected)
	}
	if !report.Outcomes[0].Accepted || !report.Outcomes[1].Accepted || report.Outcomes[2].Accepted {
		t.Fatalf("outcome order wrong: %+v", report.Outcomes)
	}
	// Each accepted flow: VNF 10 + links (0-1, 1-2) = 12.
	if report.TotalCost != 24 {
		t.Fatalf("total cost = %v, want 24", report.TotalCost)
	}
}

func TestRunRejectionConsumesNothing(t *testing.T) {
	net := tinyNet()
	// First request too big, second fits: the failed attempt must not
	// have leaked reservations.
	reqs := []Request{chainReq(5), chainReq(2)}
	report, err := Run(net, reqs, core.EmbedMBBE)
	if err != nil {
		t.Fatal(err)
	}
	if report.Accepted != 1 || report.Outcomes[0].Accepted {
		t.Fatalf("report = %+v", report)
	}
	if !errors.Is(report.Outcomes[0].Err, core.ErrNoEmbedding) {
		t.Fatalf("rejection error = %v", report.Outcomes[0].Err)
	}
}

// TestRunCommitFailureCountsAsRejection exercises the defensive branch in
// Run: an Embedder that claims success but hands back a solution the
// shared ledger can no longer accommodate. A stale-cache embedder models
// this — it embeds once against a fresh ledger and replays that result for
// every request, so the second request's Commit sees residual 0 < rate.
func TestRunCommitFailureCountsAsRejection(t *testing.T) {
	net := tinyNet() // single f(1) instance, capacity 2
	req := chainReq(2)

	fresh := tinyNet()
	cached, err := core.EmbedMBBE(&core.Problem{
		Net: fresh, SFC: req.SFC, Src: req.Src, Dst: req.Dst, Rate: req.Rate, Size: req.Size,
	})
	if err != nil {
		t.Fatal(err)
	}
	stale := func(p *core.Problem) (*core.Result, error) { return cached, nil }

	report, err := Run(net, []Request{req, req}, stale)
	if err != nil {
		t.Fatalf("commit failure must be a rejection, not a run abort: %v", err)
	}
	if report.Accepted != 1 || report.Rejected != 1 {
		t.Fatalf("accepted/rejected = %d/%d, want 1/1", report.Accepted, report.Rejected)
	}
	second := report.Outcomes[1]
	if second.Accepted || second.Err == nil {
		t.Fatalf("second outcome = %+v, want rejected with error", second)
	}
	// The rejection reports the commit-time violation, which is not a
	// plain no-embedding failure from the algorithm.
	if errors.Is(second.Err, core.ErrNoEmbedding) {
		t.Fatalf("commit failure misreported as ErrNoEmbedding: %v", second.Err)
	}
}

func TestRunRecordsLatencies(t *testing.T) {
	net := tinyNet()
	reqs := []Request{chainReq(1), chainReq(1), chainReq(1)}
	report, err := Run(net, reqs, core.EmbedMBBE)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Outcomes) != len(reqs) {
		t.Fatalf("%d outcomes for %d requests", len(report.Outcomes), len(reqs))
	}
	for i, o := range report.Outcomes {
		if o.Latency <= 0 {
			t.Fatalf("outcome %d has no latency: %+v", i, o)
		}
	}
}

// TestRunAbortsOnHardError: through every entry point, an embedder error
// that is not "no embedding exists" — a malformed problem, an embedder bug —
// ends the run instead of being booked as a rejection.
func TestRunAbortsOnHardError(t *testing.T) {
	net := tinyNet()
	bad := Request{SFC: sfc.DAGSFC{Layers: []sfc.Layer{{VNFs: []network.VNFID{1}}}},
		Src: 0, Dst: 2, Rate: -1, Size: 1} // invalid problem, not a rejection
	boom := errors.New("embedder bug")
	broken := func(*core.Problem) (*core.Result, error) { return nil, boom }
	for _, c := range []struct {
		name  string
		req   Request
		embed Embedder
		want  error // nil: any error
	}{
		{"malformed problem", bad, core.EmbedMBBE, nil},
		{"embedder bug", chainReq(1), broken, boom},
	} {
		timed := []TimedRequest{{Request: c.req, Arrival: 0, Duration: 1}}
		_, runErr := Run(net, []Request{c.req}, c.embed)
		churn, churnErr := RunChurn(net, timed, c.embed)
		fail, failErr := RunFailures(net, timed, nil, c.embed)
		for entry, err := range map[string]error{"Run": runErr, "RunChurn": churnErr, "RunFailures": failErr} {
			if err == nil || (c.want != nil && !errors.Is(err, c.want)) {
				t.Errorf("%s, %s: err = %v, want the hard error", c.name, entry, err)
			}
		}
		if churn.Rejected != 0 || fail.Rejected != 0 {
			t.Errorf("%s: hard error booked as a rejection (%d, %d)", c.name, churn.Rejected, fail.Rejected)
		}
	}
}

func TestRunEmpty(t *testing.T) {
	report, err := Run(tinyNet(), nil, core.EmbedMBBE)
	if err != nil {
		t.Fatal(err)
	}
	if report.Accepted != 0 || len(report.Outcomes) != 0 {
		t.Fatalf("empty run report = %+v", report)
	}
}

func TestRandomRequestsShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := netgen.Default()
	cfg.Nodes = 30
	cfg.VNFKinds = 6
	net := netgen.MustGenerate(cfg, rng)
	reqs := RandomRequests(net, sfcgen.Config{Size: 4, LayerWidth: 3, VNFKinds: 6}, 20, 1, 1, rng)
	if len(reqs) != 20 {
		t.Fatalf("len = %d", len(reqs))
	}
	for i, r := range reqs {
		if r.Src == r.Dst {
			t.Fatalf("request %d: src == dst", i)
		}
		if r.SFC.Size() != 4 {
			t.Fatalf("request %d: size %d", i, r.SFC.Size())
		}
	}
}

func TestRunComparesAlgorithms(t *testing.T) {
	// MBBE should accept at least as many flows as MINV on a capacity-
	// constrained network and cost less in total per accepted flow —
	// checked loosely: both runs complete and report sane numbers.
	rng := rand.New(rand.NewSource(5))
	cfg := netgen.Default()
	cfg.Nodes = 40
	cfg.VNFKinds = 6
	cfg.InstanceCapacity = 3
	cfg.LinkCapacity = 20
	net := netgen.MustGenerate(cfg, rng)
	reqs := RandomRequests(net, sfcgen.Config{Size: 4, LayerWidth: 3, VNFKinds: 6}, 30, 1, 1, rng)

	mbbe, err := Run(net, reqs, core.EmbedMBBE)
	if err != nil {
		t.Fatal(err)
	}
	minv, err := Run(net, reqs, baseline.EmbedMINV)
	if err != nil {
		t.Fatal(err)
	}
	if mbbe.Accepted == 0 {
		t.Fatal("MBBE accepted nothing")
	}
	if mbbe.Accepted+mbbe.Rejected != len(reqs) || minv.Accepted+minv.Rejected != len(reqs) {
		t.Fatal("outcome counts inconsistent")
	}
	if mbbe.Accepted > 0 && minv.Accepted > 0 {
		mAvg := mbbe.TotalCost / float64(mbbe.Accepted)
		nAvg := minv.TotalCost / float64(minv.Accepted)
		if mAvg > nAvg {
			t.Logf("note: MBBE avg %v > MINV avg %v on this instance", mAvg, nAvg)
		}
	}
}
