package main

import (
	"fmt"
	"time"

	"ssmobile/internal/cluster"
	"ssmobile/internal/core"
	"ssmobile/internal/obs"
	"ssmobile/internal/server"
	"ssmobile/internal/sim"
	"ssmobile/internal/workload"
)

// The cluster-tcp workload: server.NewTCP on loopback in front of a
// 4-node cluster of E14-shaped cards, one closed-loop client connection
// (the protocol has one request in flight per connection), a 60/30/2/3/5
// mix with Zipf 1.2 over 32 keys and 512 B–4 KB payloads.
const (
	clusterNodes    = 4
	clusterAgeBytes = 6 << 20
	clusterOps      = 10000 // per round, at scale 1
	clientTimeout   = 60 * time.Second
)

func clusterCard() core.SolidStateConfig {
	return core.SolidStateConfig{
		DRAMBytes: 8 << 20, FlashBytes: 8 << 20, BufferBytes: 1 << 20, RBoxBytes: 512 << 10,
		IdleCleanBlocks: 24, WriteBackDelay: 2 * sim.Second,
	}
}

func clusterConfig(o *obs.Observer) cluster.Config {
	return cluster.Config{Replicas: 1, RebalanceMargin: 0.05, Obs: o}
}

func clusterLoad(seed int64, ops int) workload.Config {
	return workload.Config{
		Seed: seed, Clients: 1, OpsPerClient: ops, Keys: 32,
		MinWriteBytes: 512, MaxWriteBytes: 4096,
		Mix:        workload.Mix{Read: 0.60, Write: 0.30, Truncate: 0.02, Delete: 0.03, Sync: 0.05},
		Popularity: workload.Zipf, ZipfSkew: 1.2,
		Arrival: workload.ClosedLoop,
	}
}

type clusterTCP struct {
	load     workload.Config
	ops      []workload.Op
	payloads [][]byte
}

func newClusterTCP(seed int64, scale float64) *clusterTCP {
	w := &clusterTCP{load: clusterLoad(seed, max(1, int(clusterOps*scale)))}
	w.ops = workload.Stream(w.load, 0)
	w.payloads = make([][]byte, len(w.ops))
	for i, op := range w.ops {
		if op.Kind == workload.Write {
			w.payloads[i] = op.Payload(nil)
		}
	}
	return w
}

func (w *clusterTCP) round(traced bool, m *meter) (r *round, err error) {
	epoch := time.Now()
	var srvRec, cliRec *recorder
	var routerObs *obs.Observer
	if traced {
		srvRec, cliRec = newRecorder(epoch), newRecorder(epoch)
		routerObs = tracedObserver()
	}
	t0 := time.Now()
	nodes := make([]*cluster.Node, clusterNodes)
	cards := make([]*card, clusterNodes)
	for i := range nodes {
		nodes[i], cards[i], err = clusterNode(fmt.Sprintf("n%d", i), clusterCard(), clusterAgeBytes, wrapEngine(srvRec))
		if err != nil {
			return nil, err
		}
	}
	cl, err := cluster.New(nodes, clusterConfig(routerObs))
	if err != nil {
		return nil, err
	}
	svc := &timedService{Service: cl, rec: srvRec, spanBase: spClusterDo}
	if srvRec != nil {
		srvRec.spans = srvRec.spans[:0] // drop the aging spans
	}
	tcp := server.NewTCP(svc)
	if err := tcp.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	defer func() {
		if serr := tcp.Shutdown(); serr != nil && err == nil {
			err = serr
		}
	}()
	client, err := server.DialOpts(tcp.Addr().String(), "c0", server.ClientOptions{Timeout: clientTimeout})
	if err != nil {
		return nil, err
	}
	defer client.Close()
	r = &round{setup: time.Since(t0), ops: int64(len(w.ops))}

	before := make([]cardSnap, clusterNodes)
	for i, c := range cards {
		before[i] = snapCard(c)
	}
	vstart := cl.Now()
	outcomes := make([]outcome, len(w.ops))
	r.host = make([]int64, len(w.ops))
	if err := m.begin(); err != nil {
		return nil, err
	}
	for i, op := range w.ops {
		if i&1023 == 0 {
			m.sample()
		}
		h0 := time.Now()
		s := cliRec.begin(spRTT)
		var err error
		switch op.Kind {
		case workload.Read:
			_, err = client.Get(op.Key, op.Offset, int64(op.Size))
		case workload.Write:
			_, err = client.Put(op.Key, op.Offset, w.payloads[i])
		case workload.Truncate:
			err = client.Truncate(op.Key, int64(op.Size))
		case workload.Delete:
			err = client.Delete(op.Key)
		case workload.Sync:
			_, err = client.Sync()
		}
		cliRec.end(s)
		r.host[i] = int64(time.Since(h0))
		outcomes[i] = classify(err)
	}
	tEnd := int64(time.Since(epoch))
	if err := m.end(r); err != nil {
		return nil, err
	}

	// Locking the router and each node server orders every request the
	// connection's goroutine served before these reads.
	cst := cl.ClusterStats()
	vend := cl.Now()
	var maxShed int64
	agg := map[string]float64{}
	for i, c := range cards {
		ns := nodes[i].Srv.Stats()
		maxShed = max(maxShed, ns.Shed)
		for k, v := range cardCounts(before[i], snapCard(c)) {
			agg[k] += v
		}
	}
	r.counts = agg
	// Across the fleet: write_amp from the summed byte counts, erase_cov
	// as the mean of the cards' spreads, copied_per_clean re-derived.
	var prog, hostW int64
	for i, c := range cards {
		a := c.Engine.Stats()
		prog += a.FlashBytesProgrammed - before[i].eng.FlashBytesProgrammed
		hostW += a.HostBytesWritten - before[i].eng.HostBytesWritten
	}
	r.counts["write_amp"] = ratio(prog, hostW)
	r.counts["erase_cov"] /= clusterNodes
	r.counts["engine.copied_per_clean"] = ratio(int64(agg["engine.copied_pages"]), int64(agg["engine.cleans"]))
	r.counts["storman.absorbed_frac"] /= clusterNodes
	r.counts["storman.dram_read_frac"] /= clusterNodes
	r.counts["cluster.shed_retries"] = float64(cst.ShedRetries)
	r.counts["cluster.replica_sheds"] = float64(cst.ReplicaSheds)
	r.counts["cluster.read_failovers"] = float64(cst.ReadFailovers)
	r.counts["cluster.rebalances"] = float64(cst.Rebalances)
	r.counts["cluster.migrated_keys"] = float64(cst.MigratedKeys)
	r.counts["node.max_shed"] = float64(maxShed)
	r.counts["server.shed"] = float64(cst.Shed)
	r.counts["server.not_found"] = float64(cst.NotFound)
	r.counts["server.batched_sync_frac"] = ratio(cst.BatchedSyncs, cst.Completed)
	r.counts["v_goodput"] = float64(cst.Completed) / vend.Sub(vstart).Seconds()

	// Output check through the same connection, then drain.
	objs := replay(w.ops, outcomes)
	for k := 0; k < w.load.Keys; k++ {
		if !objs.matches(uint64(k), clientGet(client)) {
			r.mismatches++
		}
	}
	for _, out := range outcomes {
		if out != outOK && out != outNotFound {
			r.failed++
		}
	}
	client.Close()
	if err := tcp.Shutdown(); err != nil {
		return nil, err
	}
	sess := svc.requests()
	if len(sess) != 1 {
		return nil, fmt.Errorf("%d sessions opened, want 1", len(sess))
	}
	vlat := sess[0].vlat
	sv := sorted(vlat[:min(len(vlat), int(cst.Completed))])
	r.counts["v_p50_ms"] = quantile(sv, 0.50) / 1e6
	r.counts["v_p99_ms"] = quantile(sv, 0.99) / 1e6
	for _, c := range cards {
		if err := c.check(); err != nil {
			return nil, err
		}
	}
	if traced {
		r.tm = &timers{}
		srvSpans := timedSpans(srvRec.spans, tEnd)
		r.tm.addSpans(srvSpans)
		r.tm.addSpans(cliRec.spans)
		var do []int64
		for _, sp := range srvSpans {
			if sp.parent < 0 && sp.name >= spClusterDo && sp.name < spRTT {
				do = append(do, sp.end-sp.start)
			}
		}
		for i, sp := range cliRec.spans {
			if i < len(do) {
				r.tm.tcp = append(r.tm.tcp, sp.end-sp.start-do[i])
			}
		}
		r.spans = append(srvSpans, cliRec.spans...)
	}
	r.failed += r.mismatches
	r.counts["fail_frac"] = float64(r.failed) / float64(r.ops)
	return r, nil
}

// timedSpans drops the spans that started after the timed run ended
// (the output check and the drain).
func timedSpans(spans []span, end int64) []span {
	for i, sp := range spans {
		if sp.start > end {
			return spans[:i]
		}
	}
	return spans
}

// clientGet adapts the TCP client to the shadow model's read-back.
func clientGet(c *server.Client) func(server.Request) (server.Response, error) {
	return func(req server.Request) (server.Response, error) {
		b, err := c.Get(req.Key, req.Offset, req.Size)
		return server.Response{N: len(b), Data: b}, err
	}
}
