package main

import (
	"context"
	"net"
	"net/http"
	"testing"
	"time"

	"dagsfc/internal/netgen"
	"dagsfc/internal/server"
)

// TestRunServesAndDrains boots the command's run on a loopback port with a
// generated 20-node network and a write-ahead log, waits for /metrics to
// answer, then cancels the context as a SIGTERM would: run must drain and
// return nil.
func TestRunServesAndDrains(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gen := netgen.Default()
	gen.Nodes = 20
	cfg := server.Config{Seed: 1, WALDir: t.TempDir(), WALSync: "commit"}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- run(ctx, ln, "", gen, cfg, 10*time.Second) }()

	url := "http://" + ln.Addr().String() + "/metrics"
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case err := <-done:
			t.Fatalf("run returned before serving: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("GET %s never answered 200 (last error %v)", url, err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after cancel: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("run did not return after its context was cancelled")
	}
}
