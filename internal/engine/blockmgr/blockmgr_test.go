package blockmgr

import (
	"errors"
	"testing"

	"ssmobile/internal/device"
	"ssmobile/internal/engine"
	"ssmobile/internal/flash"
	"ssmobile/internal/obs"
	"ssmobile/internal/sim"
)

var errNoSpace = errors.New("test: no space")

// rig is a manager over a 4-block card rated for two erase cycles, with
// hooks that record what the manager told the engine.
type rig struct {
	dev             *flash.Device
	m               *Manager
	erased, retired []int
}

func newRig(t *testing.T) *rig {
	t.Helper()
	clock := sim.NewClock()
	params := device.IntelFlash
	params.EnduranceCycles = 2
	dev, err := flash.New(flash.Config{Banks: 1, BlocksPerBank: 4, BlockBytes: 4096, Params: params}, clock, sim.NewEnergyMeter())
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{dev: dev}
	o := obs.New(0)
	r.m = New(dev, clock, Config{
		Layer:         "test",
		ReserveBlocks: 1,
		Obs:           o,
		HostBytes:     o.Counter("host_bytes_total", nil),
		ErrNoSpace:    errNoSpace,
		PickVictim:    func() int { return -1 },
		Relocate:      func(int) error { return nil },
		Erased:        func(b int) { r.erased = append(r.erased, b) },
		Retired:       func(b int) { r.retired = append(r.retired, b) },
	})
	return r
}

func TestCleanErasesOrRetires(t *testing.T) {
	r := newRig(t)
	m := r.m
	m.Open(0)
	m.Close(0)
	for i := 0; i < 2; i++ {
		if err := m.Clean(0); err != nil {
			t.Fatal(err)
		}
		if m.State(0) != Free {
			t.Fatalf("erase %d left block 0 %v, want free", i+1, m.State(0))
		}
		m.Open(0)
		m.Close(0)
	}
	// The second erase used up the rating; the third finds it worn.
	if err := m.Clean(0); err != nil {
		t.Fatal(err)
	}
	if m.State(0) != Retired || m.Retired() != 1 || m.Free() != 3 {
		t.Fatalf("state %v retired %d free %d, want retired 1 free 3", m.State(0), m.Retired(), m.Free())
	}
	if len(r.erased) != 2 || len(r.retired) != 1 || m.Cleans() != 3 {
		t.Fatalf("hooks erased %v retired %v, cleans %d", r.erased, r.retired, m.Cleans())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEnsureSpaceWithoutVictim(t *testing.T) {
	r := newRig(t)
	m := r.m
	for b := 0; b < 3; b++ {
		m.Open(b)
	}
	if err := m.EnsureSpace(); err != nil {
		t.Fatalf("one free block left, got %v", err)
	}
	if lag := m.CleanerLag(); lag != 1 {
		t.Fatalf("cleaner lag %d, want 1 (target reserve+1 = 2, free 1)", lag)
	}
	m.Open(3)
	if err := m.EnsureSpace(); !errors.Is(err, errNoSpace) {
		t.Fatalf("full card with nothing to clean: got %v, want the engine's ErrNoSpace", err)
	}
}

// The mount pass: a block with records stays in use even when worn; a
// worn block without records retires; a dirty block without records is
// erased again, and retires if that erase wore it out.
func TestMountPass(t *testing.T) {
	r := newRig(t)
	dev := r.dev
	for _, b := range []int{0, 1, 3} {
		if _, err := dev.Erase(b); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range []int{0, 1} {
		if _, err := dev.Erase(b); err != nil {
			t.Fatal(err)
		}
	}
	// Blocks 0 and 1 are worn; block 3 has one erase left.
	if _, err := dev.Program(dev.BlockAddr(0), []byte{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Program(dev.BlockAddr(3)+7, []byte{0}); err != nil {
		t.Fatal(err)
	}
	var stats engine.MountStats
	var taken []int
	hasRecords := []bool{true, false, false, false}
	if err := r.m.Mount(&stats, hasRecords, func(b int) { taken = append(taken, b) }); err != nil {
		t.Fatal(err)
	}
	want := []State{Closed, Retired, Free, Retired}
	for b, s := range want {
		if got := r.m.State(b); got != s {
			t.Errorf("block %d mounted %v, want %v", b, got, s)
		}
	}
	if stats != (engine.MountStats{ReErasedBlocks: 1, RetiredBlocks: 2}) {
		t.Errorf("mount stats %+v", stats)
	}
	if len(taken) != 3 || taken[0] != 0 || taken[1] != 1 || taken[2] != 3 {
		t.Errorf("taken %v, want [0 1 3]", taken)
	}
	if r.m.Free() != 1 || r.m.Retired() != 2 {
		t.Errorf("free %d retired %d, want 1 and 2", r.m.Free(), r.m.Retired())
	}
	if err := r.m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
