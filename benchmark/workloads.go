package main

import (
	"math/rand"

	"dagsfc/internal/netgen"
	"dagsfc/internal/network"
	"dagsfc/internal/server"
	"dagsfc/internal/sfc"
	"dagsfc/internal/sfcgen"
)

// Run protocol constants, the same for every workload.
const (
	// rounds is R: every end-to-end metric is the median of this many
	// per-round values.
	rounds = 5
	// setups is how many times a run builds the substrate, starts the
	// program and warms it up; setup_s is the median of their durations.
	setups = 3
	// refSeconds is the --seconds value the per-round op counts below are
	// sized for: at 20 s a round lasts 4 s or a little more on the code
	// and machine the benchmark was defined on. Other values scale the
	// counts linearly.
	refSeconds = 20
	// procs is the GOMAXPROCS the benchmark pins itself to, load
	// generator and program together.
	procs = 2
	// flowRate and flowSize are every request's delivery rate R and size
	// z. Rate 1 keeps every ledger sum an exact small integer, so "the
	// ledger is back at the seed residuals" can be checked with ==.
	flowRate = 1.0
	flowSize = 1.0
)

// spec is one workload's definition. Nothing in it is a flag: a workload
// is a contract other changes are measured against.
type spec struct {
	Name string
	Why  string
	// Serve selects the full stack over loopback HTTP; otherwise the
	// workload calls the library (core.Embed/Commit/Release) directly.
	Serve bool
	// Substrate: netgen.Default() with these overrides, drawn from
	// SubstrateSeed, as is the population of requests. Both are part of
	// the workload, like its size; --seed drives the order the requests
	// arrive in and the fault picks (see generate).
	Nodes         int
	SubstrateSeed int64
	// Ops is admission attempts per round at refSeconds.
	Ops int
	// Clients is the closed-loop client count (1 goroutine for library
	// workloads; goroutines with one HTTP connection each for serve).
	Clients int
	// Standing is how many accepted flows each client keeps reserved
	// before every further admission is paired with releasing its oldest.
	Standing int
	// Request shape.
	SizeMin, SizeMax int  // VNFs per SFC
	Width            int  // sfcgen.LayerWidth; ignored when Chain
	Chain            bool // send a flat chain of stock categories
	// TTL, when positive, is carried by every second op of each client;
	// those flows expire through the server's wheel instead of being
	// DELETEd.
	TTL float64
	// Protect marks every second op "protection: backup".
	Protect bool
	// FaultEvery / FaultHold: every FaultEvery ops the client takes a
	// seeded currently-loaded edge down and restores it FaultHold ops
	// later (0: no faults).
	FaultEvery, FaultHold int
	// WAL enables the write-ahead log (fsync=commit) in a scratch dir.
	WAL bool
}

// specs lists the four workloads. Their names are referred to by later
// changes; do not rename, and do not add a fifth (see README.md).
var specs = []spec{
	{
		Name:  "embed-parallel",
		Why:   "paper regime: width-3 DAG-SFCs on the 500-node Table 2 substrate, library calls only; core's search trees do the work, server/wal/http idle",
		Nodes: 500, SubstrateSeed: 11, Ops: 2300, Clients: 1, Standing: 500,
		SizeMin: 6, SizeMax: 6, Width: 3,
	},
	{
		Name:  "embed-serial",
		Why:   "same substrate, width-1 chains: six single-VNF layers make graph (view compile, Dijkstra trees) the cost while core's parallel-layer machinery idles",
		Nodes: 500, SubstrateSeed: 11, Ops: 1200, Clients: 1, Standing: 300,
		SizeMin: 6, SizeMax: 6, Width: 1,
	},
	{
		Name:  "serve-durable",
		Why:   "full stack over loopback HTTP, 2 clients, 50 nodes, WAL fsync=commit, TTL expiry beside DELETE: per-request fixed cost (http, sfc, queues, commit loop, wal) dominates",
		Serve: true, Nodes: 50, SubstrateSeed: 12, Ops: 2900, Clients: 2, Standing: 50,
		SizeMin: 3, SizeMax: 8, Chain: true, TTL: 0.25, WAL: true,
	},
	{
		Name:  "serve-protect-faults",
		Why:   "full stack, 1 client, 100 nodes, every 2nd flow protected, edge-down faults every 100 ops: the only banned-set search, dual commit, failover, repair and re-protect, and the only rejections",
		Serve: true, Nodes: 100, SubstrateSeed: 13, Ops: 2100, Clients: 1, Standing: 400,
		SizeMin: 4, SizeMax: 6, Width: 3, Protect: true, FaultEvery: 100, FaultHold: 50,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// scaled returns the spec with its op count sized for a run of the given
// length. smoke divides by a further 50 (the go-test pass) and shrinks
// the standing set with it so releases still happen.
func (s spec) scaled(seconds int, smoke bool) spec {
	s.Ops = s.Ops * seconds / refSeconds
	if smoke {
		s.Ops /= 50
		if s.FaultEvery > 0 {
			s.FaultEvery, s.FaultHold = 10, 5
		}
	}
	if min := 8 * s.Clients; s.Ops < min {
		s.Ops = min
	}
	if cap := s.Ops / (4 * s.Clients); s.Standing > cap {
		s.Standing = cap
	}
	return s
}

// warmupOps is the prefix of the round every set-up replays before the
// program counts as started: caches filled, pools grown, heap sized.
func (s spec) warmupOps() int { return s.Ops / 4 }

// substrate draws the workload's network. Deterministic: every set-up of
// a run, and every run, builds the identical substrate.
func (s spec) substrate() (*network.Network, error) {
	cfg := netgen.Default()
	cfg.Nodes = s.Nodes
	return netgen.Generate(cfg, rand.New(rand.NewSource(s.SubstrateSeed)))
}

// op is one admission attempt, generated before timing starts. Library
// workloads use DAG; serve workloads send Req.
type op struct {
	DAG sfc.DAGSFC
	Req server.FlowRequest
}

// faultEvent is one entry of the fault schedule: at op At the client takes
// down the Pick-th (modulo) currently loaded edge, and restores it before
// op Restore.
type faultEvent struct {
	At, Restore int
	Pick        int
}

// inputs is everything a run feeds the program, derived from the seed.
type inputs struct {
	Ops    []op
	Faults []faultEvent
}

// generate derives the request stream and fault schedule from seed. The
// same (spec, seed) always yields the same inputs; the program never sees
// the seed, only the requests.
//
// Every seed replays the same population of requests — (endpoints, SFC)
// pairs drawn once from the workload's own constant seed, like the
// substrate — in an order of its own, and draws its own fault picks. The
// per-op figures are means of heavy-tailed quantities (an op's work grows
// steeply with its endpoints' distance and its SFC's shape): a population
// drawn afresh per seed made allocs_per_op differ by 1.4–3.3 % and, on
// tight capacity, accept_ratio by 1.2 % from seed to seed. That is the
// sampling error of the input, wider than the bounds the metrics are
// held to, and says nothing about the code.
func generate(s spec, seed int64) (inputs, error) {
	nw, err := s.substrate()
	if err != nil {
		return inputs{}, err
	}
	nodes := nw.G.NumNodes()
	kinds := netgen.Default().VNFKinds
	nSizes := s.SizeMax - s.SizeMin + 1
	pop := rand.New(rand.NewSource(s.SubstrateSeed))
	population := make([]op, s.Ops)
	for i := range population {
		o := &population[i]
		// k is the op's position in its client's own sequence (client c
		// sends ops c, c+C, …). Sizes and the TTL/protection flags cycle
		// on k instead of being drawn, so every client sees every
		// combination at a fixed cadence.
		k := i / s.Clients
		size := s.SizeMin + (k/2)%nSizes
		src := pop.Intn(nodes)
		dst := pop.Intn(nodes)
		for dst == src {
			dst = pop.Intn(nodes)
		}
		o.Req = server.FlowRequest{Src: src, Dst: dst, Rate: flowRate, Size: flowSize}
		if s.Chain {
			// Distinct stock categories (1..8) in random order; the
			// server standardizes them with sfc.StockRules.
			perm := pop.Perm(int(sfc.TrafficShaper))
			o.Req.Chain = make([]int, size)
			for k := range o.Req.Chain {
				o.Req.Chain[k] = perm[k] + 1
			}
		} else {
			dag, err := sfcgen.Generate(sfcgen.Config{Size: size, LayerWidth: s.Width, VNFKinds: kinds}, pop)
			if err != nil {
				return inputs{}, err
			}
			o.DAG = dag
			o.Req.SFC = sfc.Format(dag)
		}
		if s.TTL > 0 && k%2 == 1 {
			o.Req.TTLSeconds = s.TTL
		}
		if s.Protect && k%2 == 1 {
			o.Req.Protection = server.ProtectionBackup
		}
	}

	// The seed's order: a shuffle within each (size, flag) class, which
	// keeps the cadence above at every position.
	rng := rand.New(rand.NewSource(seed))
	classes := make([][]int, 2*nSizes)
	for i := range population {
		c := (i / s.Clients) % len(classes)
		classes[c] = append(classes[c], i)
	}
	in := inputs{Ops: make([]op, s.Ops)}
	for _, at := range classes {
		for j, from := range rng.Perm(len(at)) {
			in.Ops[at[j]] = population[at[from]]
		}
	}
	if s.FaultEvery > 0 {
		for at := s.FaultEvery; at+s.FaultHold < s.Ops; at += s.FaultEvery {
			in.Faults = append(in.Faults, faultEvent{At: at, Restore: at + s.FaultHold, Pick: rng.Intn(1 << 30)})
		}
	}
	return in, nil
}
