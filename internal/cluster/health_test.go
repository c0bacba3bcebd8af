// Health-sweep tests over real node stacks: the router's rebalancing
// must not depend on how (or whether) a node is observed, and the
// free-block margin it reads from the engine must equal the one the
// SMART-style report behind /debug/health derives from the node's
// telemetry — on both storage engines, and across a kill/restart.
package cluster_test

import (
	"fmt"
	"testing"

	"ssmobile/internal/cluster"
	"ssmobile/internal/core"
	"ssmobile/internal/flash"
	"ssmobile/internal/obs"
	"ssmobile/internal/server"
	"ssmobile/internal/sim"
	"ssmobile/internal/workload"
)

// newAgedNodes builds the E14 rebalance cell's node set on the named
// engine: n nodes aged by 6MB of history on an 8MB card, except node 0,
// aged to its free-block margin (7.5MB). It returns the nodes and their
// private observers.
func newAgedNodes(t *testing.T, n int, eng string) ([]*cluster.Node, []*obs.Observer) {
	t.Helper()
	nodes := make([]*cluster.Node, n)
	privs := make([]*obs.Observer, n)
	for i := range nodes {
		age := int64(6 << 20)
		if i == 0 {
			age = 15 << 19
		}
		node, priv, err := core.NewClusterNode(core.ClusterNodeConfig{
			Name: fmt.Sprintf("n%d", i),
			System: core.SolidStateConfig{
				DRAMBytes:       8 << 20,
				FlashBytes:      8 << 20,
				BufferBytes:     1 << 20,
				RBoxBytes:       512 << 10,
				IdleCleanBlocks: 24,
				WriteBackDelay:  2 * sim.Second,
				Engine:          eng,
			},
			AgeBytes: age,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i], privs[i] = node, priv
	}
	return nodes, privs
}

// mixedWorkload is E14's open-loop mix at the single-card knee, shortened.
func mixedWorkload(seed int64, opsPerClient int) workload.Config {
	const w = 0.6
	return workload.Config{
		Seed:          seed,
		Clients:       32,
		OpsPerClient:  opsPerClient,
		Keys:          6,
		ObjectBytes:   32 << 10,
		MinWriteBytes: 4096,
		MaxWriteBytes: 4096,
		Mix: workload.Mix{
			Read:     1 - w,
			Write:    w * 0.90,
			Truncate: w * 0.02,
			Delete:   w * 0.03,
			Sync:     w * 0.05,
		},
		Popularity:    workload.Zipf,
		ZipfSkew:      1.2,
		Arrival:       workload.OpenLoop,
		RatePerClient: 10,
	}
}

// TestUnobservedNodesStillRebalance pins the one-way telemetry rule:
// health checks read the engine, not the node's metrics registry, so a
// cluster whose nodes carry no observer (or an observer without a
// registry) cordons the deep-aged card and migrates its keys exactly as
// the observed E14 rebalance cell does.
func TestUnobservedNodesStillRebalance(t *testing.T) {
	run := func(t *testing.T, strip func(*cluster.Node)) cluster.Stats {
		nodes, _ := newAgedNodes(t, 3, "")
		for _, n := range nodes {
			strip(n)
		}
		cl, err := cluster.New(nodes, cluster.Config{RebalanceMargin: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := server.RunWorkload(cl, mixedWorkload(1993, 40)); err != nil {
			t.Fatal(err)
		}
		return cl.ClusterStats()
	}
	want := run(t, func(*cluster.Node) {})
	if want.Rebalances == 0 || want.MigratedKeys == 0 {
		t.Fatalf("observed cluster: %d rebalances, %d migrated keys; the scenario never cordoned", want.Rebalances, want.MigratedKeys)
	}
	for _, tc := range []struct {
		name  string
		strip func(*cluster.Node)
	}{
		{"nil-obs", func(n *cluster.Node) { n.Obs = nil }},
		{"no-registry", func(n *cluster.Node) { n.Obs = &obs.Observer{Tracer: n.Obs.Tracer} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := run(t, tc.strip)
			if got != want {
				t.Errorf("cluster stats %+v, observed cluster %+v", got, want)
			}
		})
	}
}

// TestRouterMarginMatchesHealthReport checks that the margin the router
// reads from each node's engine is exactly (float64 ==) the
// FreeBlockMargin flash.HealthFromSnapshot computes from the node's
// registry — after aging, after a mixed workload, and after a
// kill/restart swaps in a server over the remounted stack — on both
// storage engines.
func TestRouterMarginMatchesHealthReport(t *testing.T) {
	for _, eng := range []string{"ftl", "pdl"} {
		t.Run(eng, func(t *testing.T) {
			nodes, privs := newAgedNodes(t, 3, eng)
			cl, err := cluster.New(nodes, cluster.Config{RebalanceMargin: 0.05})
			if err != nil {
				t.Fatal(err)
			}
			check := func(point string) {
				t.Helper()
				for i, n := range nodes {
					got, ok := n.Srv.FreeBlockMargin()
					if !ok {
						t.Fatalf("%s: node %s reports no engine margin", point, n.Name)
					}
					rep, err := flash.HealthFromSnapshot(privs[i].Registry.Snapshot(), "flash")
					if err != nil {
						t.Fatalf("%s: node %s: %v", point, n.Name, err)
					}
					if got != rep.FreeBlockMargin {
						t.Errorf("%s: node %s router margin %v, health report %v", point, n.Name, got, rep.FreeBlockMargin)
					}
				}
			}
			check("after aging")
			if _, err := server.RunWorkload(cl, mixedWorkload(7, 40)); err != nil {
				t.Fatal(err)
			}
			check("after workload")
			cl.KillNode(0)
			if err := cl.RestartNode(0); err != nil {
				t.Fatal(err)
			}
			check("after restart")
		})
	}
}
