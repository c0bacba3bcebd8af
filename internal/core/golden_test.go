package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ssmobile/internal/obs"
)

// goldenSeeds are the seeds the suite goldens pin.
var goldenSeeds = []int64{1993, 1, 42}

// tracedSuite is the one traced RunAll of the suite goldens: seed 1993
// at -parallel 1 against a live tracer (every span recorded, request
// contexts active). TestFTLBackendParity checks its stdout against the
// golden and TestAllExperimentsRun checks its table shapes, so the suite
// runs once for both whichever of them runs first (or alone under -run).
var tracedSuite struct {
	once    sync.Once
	results [][]*Table
	spans   int64
	err     error
}

func tracedSuiteRun(t *testing.T) [][]*Table {
	t.Helper()
	tracedSuite.once.Do(func() {
		o := obs.New(1 << 16)
		tracedSuite.results, tracedSuite.err = runAll(goldenSeeds[0], 1, o)
		tracedSuite.spans = o.Tracer.Total()
	})
	if tracedSuite.err != nil {
		t.Fatalf("traced run: %v", tracedSuite.err)
	}
	if tracedSuite.spans == 0 {
		t.Fatal("traced run recorded no spans — the observer was not wired through")
	}
	return tracedSuite.results
}

// TestFTLBackendParity is the suite golden matrix: with the ftl backend
// (the default), full RunAll stdout (every experiment, E1 through E16
// and E12b) for each golden seed at -parallel 1 and 8 must equal
// testdata/suite_seed<N>.golden byte for byte. One matrix carries three
// promises at once:
//
//   - behaviour: any drift in any experiment's numbers fails its cell;
//   - scheduling: the -parallel 1 and -parallel 8 cells of a seed match
//     the same golden, so a worker pool can never leak into results;
//   - telemetry is one-way: the seed-1993 -parallel 1 cell is the traced
//     run while the others run untraced, and all must match.
func TestFTLBackendParity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment suite six times")
	}
	for _, seed := range goldenSeeds {
		golden, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("suite_seed%d.golden", seed)))
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 8} {
			seed, par := seed, par
			t.Run(fmt.Sprintf("seed%d_par%d", seed, par), func(t *testing.T) {
				t.Parallel()
				var buf bytes.Buffer
				if seed == goldenSeeds[0] && par == 1 {
					for _, tables := range tracedSuiteRun(t) {
						for _, tab := range tables {
							tab.Fprint(&buf)
						}
					}
				} else if err := RunAllParallel(&buf, seed, par); err != nil {
					t.Fatal(err)
				}
				checkSuiteGolden(t, buf.Bytes(), golden)
			})
		}
	}
}

// TestAllExperimentsRun checks the shape of every experiment's tables in
// the traced suite run: at least one table, no empty table, every row as
// wide as its header.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	results := tracedSuiteRun(t)
	for i, id := range ExperimentIDs() {
		tables := results[i]
		t.Run(id, func(t *testing.T) {
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tab := range tables {
				if len(tab.Rows) == 0 {
					t.Errorf("%s: empty table", tab.ID)
				}
				for _, row := range tab.Rows {
					if len(row) != len(tab.Headers) {
						t.Errorf("%s: row width %d != header width %d", tab.ID, len(row), len(tab.Headers))
					}
				}
			}
		})
	}
}

func checkSuiteGolden(t *testing.T, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Fatalf("suite output drifted from the golden (%d bytes vs %d):\n%s",
			len(got), len(want), firstDiffLine(string(want), string(got)))
	}
}

// firstDiffLine renders the first line where two outputs disagree, so a
// golden failure is debuggable from the log.
func firstDiffLine(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  golden: %s\n  got:    %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("outputs agree on common prefix; lengths differ: %d vs %d bytes",
		len(want), len(got))
}

// TestE15DeterministicAcrossParallelism extends the determinism
// guarantee to the engine head-to-head at a seed the goldens do not pin:
// the same seed must print the same E15 table at any parallelism.
func TestE15DeterministicAcrossParallelism(t *testing.T) {
	var seq, par bytes.Buffer
	if err := RunExperimentParallel(&seq, "e15", 7, 1); err != nil {
		t.Fatal(err)
	}
	if err := RunExperimentParallel(&par, "e15", 7, 8); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Fatal("e15 output differs between -parallel 1 and 8")
	}
	if seq.Len() == 0 {
		t.Fatal("e15 printed nothing")
	}
}
