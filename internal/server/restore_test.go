package server_test

import (
	"context"
	"slices"
	"strings"
	"testing"
	"time"

	"dagsfc/internal/graph"
	"dagsfc/internal/journal"
	"dagsfc/internal/network"
	"dagsfc/internal/server"
)

// hubNet has two link-disjoint paths 0→7 that share transit node 3
// (0-1-3-4-7 and 0-2-3-5-7, hosts 1 and 2) and two pricier node-disjoint
// ones around it (0-6-7 and 0-8-7, hosts 6 and 8). With the outer pair
// down, a protected flow can only take the hub pair — the backup's
// node-disjointness is best effort — so taking node 3 down later kills
// both placements at once while a repair target and a re-protect target
// both exist.
func hubNet() *network.Network {
	g := graph.New(9)
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 3}, {0, 2}, {2, 3}, {3, 4}, {4, 7}, {3, 5}, {5, 7}, {0, 6}, {6, 7}, {0, 8}, {8, 7}} {
		g.MustAddEdge(e[0], e[1], 1, 10)
	}
	net := network.New(g, network.Catalog{N: 1})
	net.MustAddInstance(1, 1, 5, 4)
	net.MustAddInstance(2, 1, 6, 4)
	net.MustAddInstance(6, 1, 7, 4)
	net.MustAddInstance(8, 1, 8, 4)
	return net
}

// render is one journal event as the table below spells it: the type, the
// detail in parentheses when there is one, "!" when it carries an error.
func render(ev journal.Event) string {
	s := string(ev.Type)
	if ev.Detail != "" {
		s += "(" + ev.Detail + ")"
	}
	if ev.Err != "" {
		s += "!"
	}
	return s
}

func edgeDown(link graph.EdgeID) network.Fault {
	return network.Fault{Kind: network.FaultEdgeDown, Link: link}
}

// TestRestoreControllerTimelines pins the one restore controller, case by
// case, to the journal sequence it writes on the flow's timeline: what the
// flow lacks decides which search runs and what exhaustion means, and
// nothing else differs.
func TestRestoreControllerTimelines(t *testing.T) {
	repair := func(fault string, failed bool) []string {
		if failed {
			return []string{"repair_attempt(" + fault + ")", "dequeue", "embed_done!"}
		}
		return []string{"repair_attempt(" + fault + ")", "dequeue", "embed_done", "commit(repair)"}
	}
	reprotect := func(failed bool) []string {
		if failed {
			// The one case that fails has a single route left between the
			// endpoints: refused unsearched, and the journal says which kind.
			return []string{"repair_attempt(re-protect)", "dequeue", "embed_done(re-protect: unprotectable)!"}
		}
		return []string{"repair_attempt(re-protect)", "dequeue", "embed_done(re-protect)", "backup"}
	}
	cases := []struct {
		name      string
		net       *network.Network
		dst       int
		protected bool
		// detour faults are applied before admission and restored after it.
		detour []network.Fault
		// faults are applied one by one, each settled before the next; the
		// pinned timeline starts at the first event of the last one.
		faults []network.Fault
		// release deletes the flow while the controller is still retrying.
		release bool
		want    []string
		check   func(t *testing.T, info server.FlowInfo, known bool)
	}{
		{
			name: "primary repair", net: twoPathNet(), dst: 3,
			faults: []network.Fault{{Kind: network.FaultNodeDown, Node: 1}},
			want:   slices.Concat([]string{"strand(node-down 1)"}, repair("node-down 1", false)),
			check: func(t *testing.T, info server.FlowInfo, _ bool) {
				if info.State != server.FlowStateActive || info.Repairs != 1 {
					t.Errorf("flow = %+v, want active after one repair", info)
				}
			},
		},
		{
			name: "re-protect after failover", net: threePathNet(), dst: 4, protected: true,
			faults: []network.Fault{edgeDown(0)},
			want:   slices.Concat([]string{"failover(edge-down 0)"}, reprotect(false)),
			check: func(t *testing.T, info server.FlowInfo, _ bool) {
				if info.State != server.FlowStateActive || info.Failovers != 1 || !info.BackupActive {
					t.Errorf("flow = %+v, want active, failed over once, backup re-armed", info)
				}
			},
		},
		{
			name: "re-protect after backup loss", net: threePathNet(), dst: 4, protected: true,
			faults: []network.Fault{edgeDown(2)},
			want:   slices.Concat([]string{"backup_loss(edge-down 2)"}, reprotect(false)),
			check: func(t *testing.T, info server.FlowInfo, _ bool) {
				if info.State != server.FlowStateActive || info.Failovers != 0 || !info.BackupActive {
					t.Errorf("flow = %+v, want active on its original primary, backup re-armed", info)
				}
			},
		},
		{
			name: "repaired, then re-armed by the same task", net: hubNet(), dst: 7, protected: true,
			detour: []network.Fault{edgeDown(8), edgeDown(10)},
			faults: []network.Fault{{Kind: network.FaultNodeDown, Node: 3}},
			want:   slices.Concat([]string{"strand(node-down 3)"}, repair("node-down 3", false), reprotect(false)),
			check: func(t *testing.T, info server.FlowInfo, _ bool) {
				if info.State != server.FlowStateActive || info.Repairs != 1 || info.Failovers != 0 || !info.BackupActive {
					t.Errorf("flow = %+v, want active after one repair, backup re-armed", info)
				}
			},
		},
		{
			name: "exhausted re-protect", net: twoPathNet(), dst: 3, protected: true,
			faults: []network.Fault{edgeDown(0)},
			want: slices.Concat([]string{"failover(edge-down 0)"}, reprotect(true), reprotect(true),
				[]string{"rejected(re-protect)!"}),
			check: func(t *testing.T, info server.FlowInfo, _ bool) {
				if info.State != server.FlowStateActive || info.BackupActive || info.Cause != "" {
					t.Errorf("flow = %+v, want active and unprotected, not evicted", info)
				}
			},
		},
		{
			name: "exhausted repair", net: twoPathNet(), dst: 3, protected: true,
			faults: []network.Fault{edgeDown(0), edgeDown(2)},
			want: slices.Concat([]string{"strand(edge-down 2)"}, repair("edge-down 2", true), repair("edge-down 2", true),
				[]string{"evict(edge-down 2 (protection_lost))!"}),
			check: func(t *testing.T, info server.FlowInfo, _ bool) {
				if info.State != server.FlowStateEvicted || info.Cause != server.CauseProtectionLost || info.LastError == "" {
					t.Errorf("flow = %+v, want an evicted tombstone with cause protection_lost", info)
				}
			},
		},
		{
			name: "released mid-retry", net: twoPathNet(), dst: 3, release: true,
			faults: []network.Fault{edgeDown(2), edgeDown(0)},
			want:   slices.Concat([]string{"strand(edge-down 0)"}, repair("edge-down 0", true)),
			check: func(t *testing.T, info server.FlowInfo, known bool) {
				if known {
					t.Errorf("released flow still known: %+v", info)
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := fastRepairs(server.Config{Net: c.net, Workers: 1})
			if c.release {
				cfg.RepairRetries = 1 << 20 // never exhausts within the test
			}
			srv, err := server.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			settle := func() { waitFor(t, func() bool { return srv.PendingRepairs() == 0 }) }
			for _, f := range c.detour {
				if _, err := srv.ApplyFault(f); err != nil {
					t.Fatal(err)
				}
			}
			req := server.FlowRequest{SFC: "1", Src: 0, Dst: c.dst, Rate: 1, Size: 1}
			if c.protected {
				req.Protection = server.ProtectionBackup
			}
			info, err := srv.Submit(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range c.detour {
				if _, err := srv.RestoreFault(f); err != nil {
					t.Fatal(err)
				}
			}
			var from uint64 // the journal position the last fault starts at
			for _, f := range c.faults {
				if !c.release {
					settle()
				}
				from = srv.Journal().Events()
				if _, err := srv.ApplyFault(f); err != nil {
					t.Fatal(err)
				}
			}
			timeline := func() (out []string) {
				for _, ev := range srv.Journal().Flow(info.ID, 0) {
					if ev.Seq >= from {
						out = append(out, render(ev))
					}
				}
				return out
			}
			if c.release {
				// Let at least one whole attempt fail, then delete the flow
				// from under the controller's backoff.
				waitFor(t, func() bool { return len(timeline()) >= len(c.want) })
				if _, err := srv.Release(info.ID); err != nil {
					t.Fatal(err)
				}
			}
			settle()
			time.Sleep(10 * time.Millisecond) // anything wrongly still running would journal now
			got := timeline()
			if c.release {
				// How many attempts fit before the release is timing; what
				// must hold is the first one, one release, and no verdict.
				if n := len(got); n < len(c.want) || !slices.Equal(got[:len(c.want)], c.want) {
					t.Fatalf("timeline starts\n %q\nwant\n %q", got, c.want)
				}
				released := 0
				for _, ev := range got {
					if ev == "release(state repairing)" {
						released++
					} else if ev == "commit(repair)" || strings.HasPrefix(ev, "evict") {
						t.Errorf("a released flow's repair still reached a verdict: %q", got)
					}
				}
				if released != 1 {
					t.Errorf("timeline %q holds %d releases, want 1", got, released)
				}
			} else if !slices.Equal(got, c.want) {
				t.Fatalf("timeline\n %q\nwant\n %q", got, c.want)
			}
			final, known := srv.Flow(info.ID)
			c.check(t, final, known)
			if bad := srv.RevalidateFlows(); len(bad) != 0 {
				t.Errorf("flows failing revalidation: %v", bad)
			}
		})
	}
}
