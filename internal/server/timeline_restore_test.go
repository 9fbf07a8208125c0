package server_test

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dagsfc/internal/core"
	"dagsfc/internal/flowstate"
	"dagsfc/internal/journal"
	"dagsfc/internal/network"
	"dagsfc/internal/server"
)

// moduleGoroutines returns the IDs of the live goroutines that code in this
// module started.
func moduleGoroutines() map[string]bool {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	ids := map[string]bool{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "\ncreated by dagsfc/") {
			ids[strings.Fields(g)[1]] = true
		}
	}
	return ids
}

// TestServerRunsOneGoroutine: New starts exactly one goroutine, the
// timeline's, which serves TTL expiries and restores alike; Close and Crash
// both end it.
func TestServerRunsOneGoroutine(t *testing.T) {
	for _, stop := range []struct {
		name string
		f    func(*server.Server)
	}{
		{"close", func(s *server.Server) { _ = s.Close() }},
		{"crash", (*server.Server).Crash},
	} {
		t.Run(stop.name, func(t *testing.T) {
			before := moduleGoroutines()
			srv, err := server.New(server.Config{Net: tinyNet()})
			if err != nil {
				t.Fatal(err)
			}
			var started []string
			for id := range moduleGoroutines() {
				if !before[id] {
					started = append(started, id)
				}
			}
			if len(started) != 1 {
				stop.f(srv)
				t.Fatalf("New started %d goroutines, want 1", len(started))
			}
			stop.f(srv)
			waitFor(t, func() bool { return !moduleGoroutines()[started[0]] })
		})
	}
}

// TestExpiryWaitsOutARestoreAttempt: expiries and restores share one
// goroutine, so a TTL that falls due while a restore attempt holds it fires
// once, when the attempt returns. Here the attempt waits for the one embed
// slot, which a blocked request holds past the TTL.
func TestExpiryWaitsOutARestoreAttempt(t *testing.T) {
	entered, gate := make(chan struct{}, 1), make(chan struct{})
	block := func(p *core.Problem) (*core.Result, error) {
		entered <- struct{}{}
		<-gate
		return core.EmbedMBBE(p)
	}
	srv, err := server.New(server.Config{
		Net: twoPathNet(), Workers: 1,
		Embedders: map[string]server.Embedder{"block": block},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var once sync.Once
	openGate := func() { once.Do(func() { close(gate) }) }
	defer openGate()
	ctx := context.Background()

	// The repaired flow sits on node 1, the TTL flow on node 2.
	repaired, err := srv.Submit(ctx, server.FlowRequest{SFC: "1", Src: 0, Dst: 3, Rate: 1, Size: 1})
	if err != nil {
		t.Fatal(err)
	}
	ttl, err := srv.Submit(ctx, server.FlowRequest{SFC: "1", Src: 2, Dst: 3, Rate: 1, Size: 1, TTLSeconds: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() {
		_, err := srv.Submit(ctx, server.FlowRequest{SFC: "1", Src: 0, Dst: 3, Rate: 1, Size: 1, Alg: "block"})
		blocked <- err
	}()
	<-entered
	if _, err := srv.ApplyFault(network.Fault{Kind: network.FaultNodeDown, Node: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		for _, ev := range srv.Journal().Flow(repaired.ID, 0) {
			if ev.Type == journal.TypeRepairAttempt {
				return true
			}
		}
		return false
	})
	time.Sleep(time.Until(*ttl.ExpiresAt) + 200*time.Millisecond)
	if got, ok := srv.Flow(ttl.ID); !ok || got.State != server.FlowStateActive {
		t.Fatalf("TTL flow during the restore attempt = %+v (known %v), want still active", got, ok)
	}

	openGate()
	<-blocked // outcome irrelevant: it only held the slot
	waitFor(t, func() bool { _, ok := srv.Flow(ttl.ID); return !ok })
	var commits, expiries []uint64
	for _, ev := range srv.Journal().Flow(repaired.ID, 0) {
		if ev.Type == named(flowstate.Commit) && ev.Detail == "repair" {
			commits = append(commits, ev.Seq)
		}
	}
	for _, ev := range srv.Journal().Flow(ttl.ID, 0) {
		if ev.Type == named(flowstate.Expire) {
			expiries = append(expiries, ev.Seq)
		}
	}
	if len(commits) != 1 || len(expiries) != 1 || expiries[0] < commits[0] {
		t.Fatalf("repair commit at seqs %v, expiry at %v: want one of each, the expiry after the commit", commits, expiries)
	}
}

// TestExpiryFiresDuringRestoreBackoff: a restore that backs off holds
// nothing, so a TTL due during the backoff fires before the retry.
func TestExpiryFiresDuringRestoreBackoff(t *testing.T) {
	srv, err := server.New(server.Config{
		Net: tinyNet(), RepairRetries: 2,
		RepairBackoff: 600 * time.Millisecond, RepairBackoffCap: 600 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	// Link 0 is the stranded flow's alone, and its loss leaves no route.
	stranded, err := srv.Submit(ctx, lineRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	ttl, err := srv.Submit(ctx, server.FlowRequest{SFC: "1", Src: 1, Dst: 2, Rate: 1, Size: 1, TTLSeconds: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.ApplyFault(network.Fault{Kind: network.FaultLinkDown, Link: 0}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		got, ok := srv.Flow(stranded.ID)
		return ok && got.State == server.FlowStateEvicted
	})
	var attempts, expiries []uint64
	for _, ev := range srv.Journal().Flow(stranded.ID, 0) {
		if ev.Type == journal.TypeRepairAttempt {
			attempts = append(attempts, ev.Seq)
		}
	}
	for _, ev := range srv.Journal().Flow(ttl.ID, 0) {
		if ev.Type == named(flowstate.Expire) {
			expiries = append(expiries, ev.Seq)
		}
	}
	if len(attempts) != 2 || len(expiries) != 1 || expiries[0] < attempts[0] || expiries[0] > attempts[1] {
		t.Fatalf("restore attempts at seqs %v, expiry at %v: want the expiry between the two attempts", attempts, expiries)
	}
}

// TestStopDuringRestoreBackoffDropsTheRetry: Drain and Crash return
// without waiting out a restore's backoff, and the retry is dropped; the
// next server re-derives the restore from the WAL.
func TestStopDuringRestoreBackoffDropsTheRetry(t *testing.T) {
	for _, stop := range []struct {
		name string
		f    func(*server.Server)
	}{
		{"drain", func(s *server.Server) { _ = s.Drain(context.Background()) }},
		{"crash", (*server.Server).Crash},
	} {
		t.Run(stop.name, func(t *testing.T) {
			dir := t.TempDir()
			srv := durableServer(t, dir, func(cfg *server.Config) {
				cfg.RepairRetries = 2
				cfg.RepairBackoff = time.Hour
				cfg.RepairBackoffCap = time.Hour
			})
			info, err := srv.Submit(context.Background(), lineRequest(1))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := srv.ApplyFault(network.Fault{Kind: network.FaultLinkDown, Link: 0}); err != nil {
				t.Fatal(err)
			}
			// The first attempt's embed fails; the retry is due in an hour.
			waitFor(t, func() bool {
				for _, ev := range srv.Journal().Flow(info.ID, 0) {
					if ev.Type == journal.TypeEmbedDone && ev.Err != "" {
						return true
					}
				}
				return false
			})
			begin := time.Now()
			stop.f(srv)
			if took := time.Since(begin); took > 10*time.Second {
				t.Fatalf("%s took %v during a one-hour backoff", stop.name, took)
			}
			tries := 0
			for _, ev := range srv.Journal().Flow(info.ID, 0) {
				if ev.Type == journal.TypeRepairAttempt {
					tries++
				}
			}
			if got, _ := srv.Flow(info.ID); tries != 1 || got.State != server.FlowStateRepairing {
				t.Fatalf("after %s: %d attempts, flow %+v; want 1 attempt, still repairing", stop.name, tries, got)
			}

			srv2 := durableServer(t, dir, func(cfg *server.Config) { *cfg = fastRepairs(*cfg) })
			defer srv2.Close()
			waitFor(t, func() bool {
				got, ok := srv2.Flow(info.ID)
				return ok && got.State == server.FlowStateEvicted
			})
		})
	}
}
