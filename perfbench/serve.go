package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"ssmobile/internal/core"
	"ssmobile/internal/obs"
	"ssmobile/internal/server"
	"ssmobile/internal/workload"
)

// The serve workload: the core-default card behind server.RunWorkload,
// 8 open-loop clients at 4 req/s each in virtual time (32 offered
// against a knee near 44), Zipf 1.1 over 16 keys per client, a
// read-mostly 80/10/2/3/5 mix.
const serveOpsPerClient = 12000 // per round, at scale 1

func serveCard(eng string) core.SolidStateConfig {
	return core.SolidStateConfig{DRAMBytes: 8 << 20, FlashBytes: 16 << 20, BufferBytes: 1 << 20,
		IdleCleanBlocks: 24, Engine: eng}
}

func serveLoad(seed int64, opsPerClient int) workload.Config {
	return workload.Config{
		Seed: seed, Clients: 8, OpsPerClient: opsPerClient, Keys: 16,
		Popularity: workload.Zipf, ZipfSkew: 1.1,
		Mix:     workload.Mix{Read: 0.80, Write: 0.10, Truncate: 0.02, Delete: 0.03, Sync: 0.05},
		Arrival: workload.OpenLoop, RatePerClient: 4,
	}
}

// tracedObserver is the observer the traced run attaches: a registry
// and a span ring, so request trace contexts and stage histograms fill.
func tracedObserver() *obs.Observer { return obs.New(1 << 16) }

type serve struct {
	load workload.Config
}

func newServe(seed int64, scale float64) *serve {
	return &serve{load: serveLoad(seed, max(1, int(serveOpsPerClient*scale)))}
}

func (w *serve) round(traced bool, m *meter) (*round, error) {
	var rec *recorder
	var o *obs.Observer
	if traced {
		rec = newRecorder(time.Now())
		o = tracedObserver()
	}
	cfg := serveCard("ftl")
	cfg.Obs = o
	t0 := time.Now()
	c, err := buildCard(cfg, wrapEngine(rec))
	if err != nil {
		return nil, err
	}
	srv, err := server.New(c.backend(), server.Config{Obs: o})
	if err != nil {
		return nil, err
	}
	svc := &timedService{Service: srv, rec: rec, spanBase: spServerDo}
	r := &round{setup: time.Since(t0)}

	before := snapCard(c)
	svc.onRequest = func(n int) {
		if n&1023 == 0 {
			m.sample()
		}
	}
	if err := m.begin(); err != nil {
		return nil, err
	}
	st, err := server.RunWorkload(svc, w.load)
	if merr := m.end(r); err == nil {
		err = merr
	}
	svc.onRequest = nil
	if err != nil {
		return nil, err
	}
	r.ops = st.Offered
	r.counts = cardCounts(before, snapCard(c))
	sess := svc.requests()
	var vlat []int64
	for _, d := range sess {
		r.host = append(r.host, d.host...)
		vlat = append(vlat, d.vlat...)
	}
	sv := sorted(vlat)
	r.counts["v_goodput"] = float64(st.Completed) / st.Elapsed.Seconds()
	r.counts["v_p50_ms"] = quantile(sv, 0.50) / 1e6
	r.counts["v_p99_ms"] = quantile(sv, 0.99) / 1e6
	ss := srv.Stats()
	r.counts["server.shed"] = float64(ss.Shed)
	r.counts["server.not_found"] = float64(ss.NotFound)
	r.counts["server.batched_sync_frac"] = ratio(ss.BatchedSyncs, ss.BatchedSyncs+ss.SyncFlushes)
	if rec != nil {
		r.tm = &timers{}
		r.tm.addSpans(rec.spans)
		r.spans = rec.spans
		r.vstageMs = map[string]float64{}
		for _, s := range vstages {
			r.vstageMs[s] = srv.BreakdownSim(s).Quantile(0.99) / 1e6
		}
	}

	// Output check: rebuild every (tenant, key) object from the
	// generator's payloads and the recorded outcomes, then read it back.
	for i, d := range sess {
		ops := workload.Stream(w.load, i)
		if len(ops) != len(d.outcomes) {
			return nil, fmt.Errorf("client %d: %d ops generated, %d served", i, len(ops), len(d.outcomes))
		}
		objs := replay(ops, d.outcomes)
		for k := 0; k < w.load.Keys; k++ {
			if !objs.matches(uint64(k), func(req server.Request) (server.Response, error) { return d.inner.Do(req) }) {
				r.mismatches++
			}
		}
		for _, out := range d.outcomes {
			if out != outOK && out != outNotFound {
				r.failed++
			}
		}
	}
	if err := c.check(); err != nil {
		return nil, err
	}
	r.failed += r.mismatches
	r.counts["fail_frac"] = float64(r.failed) / float64(r.ops)
	return r, nil
}

// objects is the shadow model of one tenant's objects.
type objects map[uint64]*[]byte

// replay applies the ops that succeeded, in stream order, with the
// server's semantics: a put creates the object and zero-fills any gap,
// a truncate resizes an existing object, a delete removes it.
func replay(ops []workload.Op, outcomes []outcome) objects {
	objs := objects{}
	for i, op := range ops {
		if outcomes[i] != outOK {
			continue
		}
		switch op.Kind {
		case workload.Write:
			b := objs[op.Key]
			if b == nil {
				b = new([]byte)
				objs[op.Key] = b
			}
			*b = resize(*b, max(int64(len(*b)), op.Offset+int64(op.Size)))
			copy((*b)[op.Offset:], op.Payload(nil))
		case workload.Truncate:
			if b := objs[op.Key]; b != nil {
				*b = resize(*b, int64(op.Size))
			}
		case workload.Delete:
			delete(objs, op.Key)
		}
	}
	return objs
}

func resize(b []byte, n int64) []byte {
	if n <= int64(len(b)) {
		return b[:n]
	}
	return append(b, make([]byte, n-int64(len(b)))...)
}

// matches reads key back through do and compares it with the model: a
// missing object must answer not-found, a present one its exact bytes.
func (objs objects) matches(key uint64, do func(server.Request) (server.Response, error)) bool {
	want, ok := objs[key]
	var size int64 = 1
	if ok {
		size = int64(len(*want)) + 1
	}
	resp, err := do(server.Request{Kind: server.OpGet, Key: key, Size: size})
	if !ok {
		return errors.Is(err, server.ErrNotFound)
	}
	return err == nil && bytes.Equal(resp.Data[:resp.N], *want)
}
