package dagsfc_test

import (
	"math/rand"
	"sync"
	"testing"

	"dagsfc"
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

// TestConcurrentEmbedsSharedProblem runs concurrent embeddings over ONE
// shared Problem value with no ledger set. Embed is documented to never
// mutate the Problem — in particular it must not lazily install a ledger
// on it, which would be a data race here (run with -race) and a surprise
// side effect even sequentially.
func TestConcurrentEmbedsSharedProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
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
	shared := &dagsfc.Problem{Net: net, SFC: s, Src: 0, Dst: 40, Rate: 1, Size: 1}

	const workers = 8
	costs := make([]float64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res, err := dagsfc.EmbedMBBE(shared)
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
	if shared.Ledger != nil {
		t.Error("Embed installed a ledger on the shared Problem")
	}
}

// TestConcurrentMixedAlgorithms exercises every embedding algorithm
// concurrently on the same shared network.
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
		func() error { _, err := dagsfc.EmbedExact(newProblem(), dagsfc.ExactLimits{}); return err },
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
