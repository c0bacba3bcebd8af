package ftl

import (
	"bytes"
	"math/rand"
	"testing"

	"ssmobile/internal/device"
	"ssmobile/internal/flash"
	"ssmobile/internal/sim"
)

// wornFlash is a 2-bank × 16-block card of 4 KB blocks with 1 KB
// record-carrying pages, rated for six erase cycles, so blocks wear out
// within a few thousand page writes.
func wornFlash(t testing.TB) (*flash.Device, *sim.Clock) {
	t.Helper()
	clock := sim.NewClock()
	params := device.IntelFlash
	params.EnduranceCycles = 6
	params.EraseLatencyNs = 1e6
	dev, err := flash.New(flash.Config{
		Banks: 2, BlocksPerBank: 16, BlockBytes: 4096, Params: params,
		SpareUnitBytes: 1024, SpareBytes: OOBRecordBytes,
	}, clock, sim.NewEnergyMeter())
	if err != nil {
		t.Fatal(err)
	}
	return dev, clock
}

// writeUntil overwrites random logical pages with random bytes until
// stop reports true, returning what every acknowledged page must read.
func writeUntil(t *testing.T, f *FTL, stop func() bool) map[int64][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(13))
	model := make(map[int64][]byte)
	for i := 0; !stop(); i++ {
		if i == 100000 {
			t.Fatal("stop condition never reached")
		}
		lpn := rng.Int63n(f.LogicalPages())
		data := make([]byte, 1024)
		rng.Read(data)
		if err := f.WritePage(lpn, data); err != nil {
			t.Fatalf("write %d (lpn %d): %v", i, lpn, err)
		}
		model[lpn] = data
	}
	return model
}

func checkModel(t *testing.T, f *FTL, model map[int64][]byte) {
	t.Helper()
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	lost := 0
	for lpn, want := range model {
		if err := f.ReadPage(lpn, buf); err != nil || !bytes.Equal(buf, want) {
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
	dev, clock := wornFlash(t)
	f, err := New(dev, clock, oobConfig())
	if err != nil {
		t.Fatal(err)
	}
	model := writeUntil(t, f, func() bool {
		for b := range f.blocks {
			if dev.WornOut(b) && f.blocks[b].valid > 0 {
				return true
			}
		}
		return false
	})
	m, err := Mount(dev, clock, oobConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkModel(t, m, model)
}

// Retiring a block spends over-provisioning; it must not cut logical
// pages off the top of the address space, whatever they hold.
func TestRetirementKeepsLogicalSpace(t *testing.T) {
	dev, clock := wornFlash(t)
	f, err := New(dev, clock, oobConfig())
	if err != nil {
		t.Fatal(err)
	}
	pages := f.LogicalPages()
	model := writeUntil(t, f, func() bool { return f.Stats().RetiredBlocks > 0 })
	checkModel(t, f, model)
	if f.LogicalPages() != pages {
		t.Fatalf("logical pages %d after a retirement, want %d", f.LogicalPages(), pages)
	}
}
