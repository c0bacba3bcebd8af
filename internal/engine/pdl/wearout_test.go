package pdl

import (
	"bytes"
	"math/rand"
	"testing"

	"ssmobile/internal/device"
	"ssmobile/internal/engine"
	"ssmobile/internal/flash"
	"ssmobile/internal/obs"
	"ssmobile/internal/sim"
)

const wornPage = 1024

// wornRig is a 2-bank × 16-block card of 4 KB blocks with 1 KB
// record-carrying units, rated for six erase cycles, so blocks wear out
// within a few thousand page writes.
func wornRig(t testing.TB) *rig {
	t.Helper()
	clock := sim.NewClock()
	params := device.IntelFlash
	params.EnduranceCycles = 6
	params.EraseLatencyNs = 1e6
	dev, err := flash.New(flash.Config{
		Banks: 2, BlocksPerBank: 16, BlockBytes: 4096, Params: params,
		SpareUnitBytes: wornPage, SpareBytes: unitRecordBytes,
	}, clock, sim.NewEnergyMeter())
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(dev, clock, wornConfig())
	if err != nil {
		t.Fatal(err)
	}
	return &rig{clock: clock, dev: dev, e: e}
}

func wornConfig() Config {
	return Config{PageBytes: wornPage, ReserveBlocks: 3, BackgroundErase: true, Obs: obs.New(0)}
}

// writeUntil mixes full random writes and small overwrites (the delta
// path) over random logical pages until stop reports true, returning
// what every acknowledged page must read.
func writeUntil(t *testing.T, e *Engine, stop func() bool) map[int64][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(13))
	model := make(map[int64][]byte)
	for i := 0; !stop(); i++ {
		if i == 100000 {
			t.Fatal("stop condition never reached")
		}
		lpn := rng.Int63n(e.LogicalPages())
		data := make([]byte, wornPage)
		if cur, ok := model[lpn]; ok && rng.Intn(2) == 0 {
			copy(data, cur)
			off := rng.Intn(wornPage - 32)
			rng.Read(data[off : off+1+rng.Intn(32)])
		} else {
			rng.Read(data)
		}
		if err := e.WritePageTagged(lpn, data, engine.Tag{}); err != nil {
			t.Fatalf("write %d (lpn %d): %v", i, lpn, err)
		}
		model[lpn] = data
	}
	return model
}

func checkModel(t *testing.T, e *Engine, model map[int64][]byte) {
	t.Helper()
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, wornPage)
	lost := 0
	for lpn, want := range model {
		if err := e.ReadPage(lpn, buf); err != nil || !bytes.Equal(buf, want) {
			lost++
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d acknowledged pages lost", lost, len(model))
	}
}

// A block whose final rated erase succeeds is marked worn but still
// erased, so it rejoins the free pool and takes new data. Mount must
// keep that data: only a worn block holding no record retires at mount;
// one holding records retires when its next erase fails.
func TestMountKeepsDataOnWornBlock(t *testing.T) {
	r := wornRig(t)
	model := writeUntil(t, r.e, func() bool {
		for b := range r.e.blocks {
			if r.dev.WornOut(b) && r.e.blocks[b].liveBases+r.e.blocks[b].liveDeltas > 0 {
				return true
			}
		}
		return false
	})
	m, err := Mount(r.dev, r.clock, wornConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkModel(t, m, model)
}

// Retiring a block spends over-provisioning; it must not cut logical
// pages off the top of the address space, whatever they hold.
func TestRetirementKeepsLogicalSpace(t *testing.T) {
	r := wornRig(t)
	pages := r.e.LogicalPages()
	model := writeUntil(t, r.e, func() bool { return r.e.Stats().RetiredBlocks > 0 })
	checkModel(t, r.e, model)
	if r.e.LogicalPages() != pages {
		t.Fatalf("logical pages %d after a retirement, want %d", r.e.LogicalPages(), pages)
	}
}
