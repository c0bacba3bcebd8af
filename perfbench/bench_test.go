package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"ssmobile/internal/cluster"
	"ssmobile/internal/core"
	"ssmobile/internal/server"
)

// Short-run scales: a few hundred operations per workload.
var testScale = map[string]float64{"wear-ftl": 0.01, "wear-pdl": 0.01, "serve": 0.005, "cluster-tcp": 0.02}

func oneRound(t *testing.T, name string, seed int64, traced bool) *round {
	t.Helper()
	w, err := newBench(name, seed, testScale[name])
	if err != nil {
		t.Fatal(err)
	}
	r, err := w.round(traced, newMeter(traced))
	if err != nil {
		t.Fatalf("%s seed %d traced=%v: %v", name, seed, traced, err)
	}
	if r.mismatches != 0 || r.failed != 0 {
		t.Fatalf("%s seed %d traced=%v: %d mismatches, %d failed", name, seed, traced, r.mismatches, r.failed)
	}
	return r
}

func calls(r *round) []int {
	var n []int
	for _, d := range r.tm.d {
		n = append(n, len(d))
	}
	return append(n, len(r.tm.stack), len(r.tm.tcp))
}

// The virtual metrics and layer counts are a function of the seed
// alone: equal across runs, across traced and untraced runs (telemetry
// is one-way), and different on another seed.
func TestDeterminism(t *testing.T) {
	for name := range testScale {
		t.Run(name, func(t *testing.T) {
			a := oneRound(t, name, 1, false)
			b := oneRound(t, name, 1, false)
			if !reflect.DeepEqual(a.counts, b.counts) {
				t.Errorf("same seed, different counts:\n%v\n%v", a.counts, b.counts)
			}
			tr := oneRound(t, name, 1, true)
			if !reflect.DeepEqual(a.counts, tr.counts) {
				t.Errorf("traced run differs from untraced:\n%v\n%v", a.counts, tr.counts)
			}
			tr2 := oneRound(t, name, 1, true)
			if !reflect.DeepEqual(calls(tr), calls(tr2)) {
				t.Errorf("same seed, different span counts: %v vs %v", calls(tr), calls(tr2))
			}
			if c := oneRound(t, name, 2, false); reflect.DeepEqual(a.counts, c.counts) {
				t.Errorf("seeds 1 and 2 gave identical counts %v", a.counts)
			}
		})
	}
}

// The hand-built card, with the engine decorator under the storage
// manager, serves exactly what core.NewSolidState's stack serves.
func TestStackEquivalence(t *testing.T) {
	load := serveLoad(7, 150)
	for _, eng := range []string{"ftl", "pdl"} {
		t.Run(eng, func(t *testing.T) {
			sys, err := core.NewSolidState(serveCard(eng))
			if err != nil {
				t.Fatal(err)
			}
			srv, err := server.New(server.Backend{FS: sys.FS, Storage: sys.Storage, Engine: sys.Engine, Clock: sys.Clock()}, server.Config{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := server.RunWorkload(srv, load)
			if err != nil {
				t.Fatal(err)
			}

			rec := newRecorder(time.Now())
			c, err := buildCard(serveCard(eng), wrapEngine(rec))
			if err != nil {
				t.Fatal(err)
			}
			srv2, err := server.New(c.backend(), server.Config{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := server.RunWorkload(srv2, load)
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.spans) == 0 {
				t.Fatal("engine decorator recorded no spans")
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("RunStats differ:\n got %+v\nwant %+v", got, want)
			}
			if g, w := c.Engine.Stats(), sys.Engine.Stats(); g != w {
				t.Errorf("engine stats differ:\n got %+v\nwant %+v", g, w)
			}
			if g, w := c.Flash.Stats(), sys.Flash.Stats(); g != w {
				t.Errorf("flash stats differ:\n got %+v\nwant %+v", g, w)
			}
		})
	}
}

// The hand-built cluster nodes behave as core.NewClusterNode's.
func TestClusterNodeEquivalence(t *testing.T) {
	load := clusterLoad(7, 300)
	run := func(build func(i int) (*cluster.Node, error)) (server.RunStats, cluster.Stats) {
		nodes := make([]*cluster.Node, clusterNodes)
		for i := range nodes {
			n, err := build(i)
			if err != nil {
				t.Fatal(err)
			}
			nodes[i] = n
		}
		cl, err := cluster.New(nodes, clusterConfig(nil))
		if err != nil {
			t.Fatal(err)
		}
		st, err := server.RunWorkload(cl, load)
		if err != nil {
			t.Fatal(err)
		}
		return st, cl.ClusterStats()
	}
	wantRun, wantCl := run(func(i int) (*cluster.Node, error) {
		n, _, err := core.NewClusterNode(core.ClusterNodeConfig{
			Name: fmt.Sprintf("n%d", i), System: clusterCard(), AgeBytes: clusterAgeBytes})
		return n, err
	})
	rec := newRecorder(time.Now())
	gotRun, gotCl := run(func(i int) (*cluster.Node, error) {
		n, _, err := clusterNode(fmt.Sprintf("n%d", i), clusterCard(), clusterAgeBytes, wrapEngine(rec))
		return n, err
	})
	if !reflect.DeepEqual(gotRun, wantRun) {
		t.Errorf("RunStats differ:\n got %+v\nwant %+v", gotRun, wantRun)
	}
	if gotCl != wantCl {
		t.Errorf("cluster stats differ:\n got %+v\nwant %+v", gotCl, wantCl)
	}
}

// Every workload and metric BENCHMARK.json names is run and printed
// with the unit the file gives it.
func TestBenchmarkJSONMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer()) {
		t.Errorf("BENCHMARK.json lists %d end-to-end and %d per-layer metrics; the benchmark prints %d and %d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer()))
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			rep, _, err := run(w.Name, 1, 0, traced, t.TempDir(), testScale[w.Name])
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w.Name, traced, rep.Correct, rep.Failed, rep.Attempted)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: printed %d metrics, BENCHMARK.json lists %d", w.Name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s printed as %+v (present %v), want unit %s", w.Name, traced, m.Name, got, ok, m.Unit)
				}
			}
			if !traced {
				for _, m := range spec.EndToEnd {
					// A short run erases too few blocks for an erase-count spread.
					if m.Name != "erase_cov" && rep.Metrics[m.Name].Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
					}
				}
			}
		}
	}
}
