package dagsfc_test

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"strings"

	"dagsfc"
	"dagsfc/internal/server"
)

// exampleNetwork builds the small priced network the examples share:
//
//	0 --1-- 1 --2-- 2 --3-- 3
//
// with f(1)@1, f(2)@2, f(3)@1 and @3, and a merger @2.
func exampleNetwork() *dagsfc.Network {
	g := dagsfc.NewGraph(4)
	g.MustAddEdge(0, 1, 1, 100)
	g.MustAddEdge(1, 2, 2, 100)
	g.MustAddEdge(2, 3, 3, 100)
	net := dagsfc.NewNetwork(g, dagsfc.Catalog{N: 3})
	net.MustAddInstance(1, 1, 10, 100)
	net.MustAddInstance(2, 2, 20, 100)
	net.MustAddInstance(1, 3, 30, 100)
	net.MustAddInstance(3, 3, 12, 100)
	net.MustAddInstance(2, dagsfc.VNFID(4), 5, 100)
	return net
}

func ExampleEmbedMBBE() {
	net := exampleNetwork()
	s, _ := dagsfc.ParseSFC("1;2,3")
	p := &dagsfc.Problem{Net: net, SFC: s, Src: 0, Dst: 3, Rate: 1, Size: 1}
	res, err := dagsfc.EmbedMBBE(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("total %.0f (VNF %.0f + links %.0f)\n",
		res.Cost.Total(), res.Cost.VNFCost, res.Cost.LinkCost)
	// Output:
	// total 59 (VNF 47 + links 12)
}

// An embedding that no capacity can carry is ErrNoEmbedding, not a
// malformed request: every instance and link of the example network serves
// 100 rate units.
func ExampleEmbedMBBE_noEmbedding() {
	net := exampleNetwork()
	s, _ := dagsfc.ParseSFC("1;2,3")
	p := &dagsfc.Problem{Net: net, SFC: s, Src: 0, Dst: 3, Rate: 200, Size: 1}
	_, err := dagsfc.EmbedMBBE(p)
	fmt.Println("no embedding:", errors.Is(err, dagsfc.ErrNoEmbedding))
	// Output:
	// no embedding: true
}

func ExampleEmbedExact() {
	net := exampleNetwork()
	s, _ := dagsfc.ParseSFC("1;2,3")
	p := &dagsfc.Problem{Net: net, SFC: s, Src: 0, Dst: 3, Rate: 1, Size: 1}
	res, err := dagsfc.EmbedExact(p)
	if err != nil {
		log.Fatal(err)
	}
	// The exact solver takes only the problem: 4 nodes and a width-2 layer
	// are inside its guard of 60 nodes and width 3. It confirms the remote
	// cheap f(3)@3 that MBBE finds one ring past coverage; BBE, stopping at
	// coverage, pays 73.
	fmt.Printf("optimal %.0f\n", res.Cost.Total())
	// Output:
	// optimal 59
}

func ExampleChainToDAG() {
	chain := []dagsfc.VNFID{dagsfc.Firewall, dagsfc.IDS, dagsfc.Monitor, dagsfc.NAT}
	hybrid := dagsfc.ChainToDAG(chain, dagsfc.StockRules(), 3)
	fmt.Println(hybrid.String())
	// Output:
	// [1] -> [2|5 +m] -> [3]
}

func ExampleParseSFC() {
	s, err := dagsfc.ParseSFC("1;2,3,4;5")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(s.String(), "size:", s.Size(), "layers:", s.Omega())
	// Output:
	// [1] -> [2|3|4 +m] -> [5] size: 5 layers: 3
}

func ExampleValidate() {
	net := exampleNetwork()
	s, _ := dagsfc.ParseSFC("1")
	p := &dagsfc.Problem{Net: net, SFC: s, Src: 0, Dst: 3, Rate: 1, Size: 1}
	res, _ := dagsfc.EmbedMBBE(p)
	fmt.Println("feasible:", dagsfc.Validate(p, res.Solution) == nil)

	// Break the solution: claim f(1) sits on a node that has no instance.
	res.Solution.Layers[0].Nodes[0] = 3
	fmt.Println("tampered:", dagsfc.Validate(p, res.Solution) == nil)
	// Output:
	// feasible: true
	// tampered: false
}

func ExampleCommit() {
	net := exampleNetwork()
	s, _ := dagsfc.ParseSFC("1")
	p := &dagsfc.Problem{Net: net, Ledger: dagsfc.NewLedger(net), SFC: s, Src: 0, Dst: 3, Rate: 1, Size: 1}
	res, _ := dagsfc.EmbedMBBE(p)
	if _, err := dagsfc.Commit(p, res.Solution); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("f(1)@1 residual after commit: %.0f\n", p.Ledger.InstanceResidual(1, 1))
	if err := dagsfc.Release(p, res.Solution); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after release: %.0f\n", p.Ledger.InstanceResidual(1, 1))
	// Output:
	// f(1)@1 residual after commit: 99
	// after release: 100
}

// Online admission: a stream of 120 flow requests onto a tight 80-node
// network (each instance serves 4 unit flows, each link 30), submitted in
// order to an in-process server. Every accepted embedding commits its
// demands, so later flows see the depleted network; MBBE admits 30 more
// flows than MINV for about what MINV spends on fewer.
func Example_onlineAdmission() {
	rng := rand.New(rand.NewSource(42))
	cfg := dagsfc.DefaultNetConfig()
	cfg.Nodes = 80
	cfg.VNFKinds = 6
	cfg.DeployRatio = 0.3
	cfg.InstanceCapacity = 4
	cfg.LinkCapacity = 30
	net, err := dagsfc.GenerateNetwork(cfg, rng)
	if err != nil {
		log.Fatal(err)
	}
	reqs := make([]server.FlowRequest, 120)
	for i := range reqs {
		s, err := dagsfc.GenerateSFC(dagsfc.SFCConfig{Size: 4, LayerWidth: 3, VNFKinds: 6}, rng)
		if err != nil {
			log.Fatal(err)
		}
		src, dst := rng.Intn(cfg.Nodes), rng.Intn(cfg.Nodes)
		for dst == src {
			dst = rng.Intn(cfg.Nodes)
		}
		reqs[i] = server.FlowRequest{SFC: dagsfc.FormatSFC(s), Src: src, Dst: dst, Rate: 1, Size: 1}
	}
	for _, alg := range []string{"MBBE", "MINV"} {
		srv, err := server.New(server.Config{Net: net})
		if err != nil {
			log.Fatal(err)
		}
		accepted, total := 0, 0.0
		for _, req := range reqs {
			req.Alg = strings.ToLower(alg)
			info, err := srv.Submit(context.Background(), req)
			switch {
			case err == nil:
				accepted++
				total += info.Cost.Total
			case !errors.Is(err, dagsfc.ErrNoEmbedding):
				log.Fatal(err)
			}
		}
		srv.Close()
		fmt.Printf("%s accepted %d/%d at total cost %.0f\n", alg, accepted, len(reqs), total)
	}
	// Output:
	// MBBE accepted 104/120 at total cost 59605
	// MINV accepted 74/120 at total cost 60011
}
