package dagsfc_test

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"dagsfc"
	"dagsfc/internal/ipmodel"
)

// TestConcurrentEmbedsShareNetworkSafely runs many embeddings over one
// shared Network concurrently, each with its own Problem and ledger. The
// Network is documented as immutable after construction, so this must be
// race-free (run the suite with -race) and every goroutine must see
// identical results.
func TestConcurrentEmbedsShareNetworkSafely(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := dagsfc.DefaultNetConfig()
	cfg.Nodes = 80
	cfg.VNFKinds = 6
	net, err := dagsfc.GenerateNetwork(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	s, err := dagsfc.GenerateSFC(dagsfc.SFCConfig{Size: 5, LayerWidth: 3, VNFKinds: 6}, rng)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	costs := make([]float64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &dagsfc.Problem{Net: net, SFC: s, Src: 0, Dst: 40, Rate: 1, Size: 1}
			res, err := dagsfc.EmbedMBBE(p)
			if err != nil {
				errs[w] = err
				return
			}
			costs[w] = res.Cost.Total()
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if costs[w] != costs[0] {
			t.Fatalf("worker %d cost %v != worker 0 cost %v", w, costs[w], costs[0])
		}
	}
}

// TestConcurrentEmbedsSharedProblem shares ONE Problem value with no ledger
// set between goroutines that each run every embedder on it: the five of the
// facade and the ILP. No embedder mutates the Problem — in particular none
// may install a ledger on it, which would be a data race here (run with
// -race) and a surprise side effect even sequentially — so p.Ledger is
// still nil afterwards, and every goroutine gets the same answers.
func TestConcurrentEmbedsSharedProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := dagsfc.DefaultNetConfig()
	cfg.Nodes = 8 // small enough for the ILP
	cfg.Connectivity = 3
	cfg.VNFKinds = 4
	net, err := dagsfc.GenerateNetwork(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	s, err := dagsfc.GenerateSFC(dagsfc.SFCConfig{Size: 2, LayerWidth: 2, VNFKinds: 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	shared := &dagsfc.Problem{Net: net, SFC: s, Src: 1, Dst: 6, Rate: 1, Size: 1}
	algs := []func(*dagsfc.Problem) (*dagsfc.Result, error){
		dagsfc.EmbedMBBE, dagsfc.EmbedBBE, dagsfc.EmbedMINV,
		func(p *dagsfc.Problem) (*dagsfc.Result, error) {
			return dagsfc.EmbedRANV(p, rand.New(rand.NewSource(3)))
		},
		dagsfc.EmbedExact, ipmodel.Embed,
	}
	const workers = 4
	costs := make([][]float64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, embed := range algs {
				res, err := embed(shared)
				if err != nil {
					errs[w] = err
					return
				}
				costs[w] = append(costs[w], res.Cost.Total())
			}
		}()
	}
	wg.Wait()
	for w := range workers {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if !slices.Equal(costs[w], costs[0]) {
			t.Fatalf("worker %d costs %v, worker 0 %v", w, costs[w], costs[0])
		}
	}
	if shared.Ledger != nil {
		t.Error("an embedder installed a ledger on the shared Problem")
	}
}

// TestConcurrentMixedAlgorithms exercises every embedding algorithm
// concurrently on the same shared network, each with its own Problem.
func TestConcurrentMixedAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := dagsfc.DefaultNetConfig()
	cfg.Nodes = 40
	cfg.VNFKinds = 5
	net, err := dagsfc.GenerateNetwork(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	s, err := dagsfc.GenerateSFC(dagsfc.SFCConfig{Size: 4, LayerWidth: 2, VNFKinds: 5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	newProblem := func() *dagsfc.Problem {
		return &dagsfc.Problem{Net: net, SFC: s, Src: 1, Dst: 30, Rate: 1, Size: 1}
	}
	algs := []func() error{
		func() error { _, err := dagsfc.EmbedMBBE(newProblem()); return err },
		func() error { _, err := dagsfc.EmbedBBE(newProblem()); return err },
		func() error { _, err := dagsfc.EmbedMINV(newProblem()); return err },
		func() error {
			_, err := dagsfc.EmbedRANV(newProblem(), rand.New(rand.NewSource(3)))
			return err
		},
		func() error { _, err := dagsfc.EmbedExact(newProblem()); return err },
	}
	var wg sync.WaitGroup
	errs := make([]error, len(algs))
	for i, run := range algs {
		wg.Add(1)
		go func(i int, run func() error) {
			defer wg.Done()
			errs[i] = run()
		}(i, run)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("algorithm %d: %v", i, err)
		}
	}
}
