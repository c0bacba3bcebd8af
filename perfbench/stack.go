package main

import (
	"fmt"

	"ssmobile/internal/cluster"
	"ssmobile/internal/core"
	"ssmobile/internal/device"
	"ssmobile/internal/dram"
	"ssmobile/internal/engine"
	"ssmobile/internal/engine/pdl"
	"ssmobile/internal/flash"
	"ssmobile/internal/fs"
	"ssmobile/internal/ftl"
	"ssmobile/internal/obs"
	"ssmobile/internal/server"
	"ssmobile/internal/sim"
	"ssmobile/internal/storman"

	engineftl "ssmobile/internal/engine/ftl"
)

// card is one single-card storage stack, assembled from the public
// constructors in the order core.NewSolidState uses, so that a timing
// decorator can sit between the engine and the storage manager. The
// execute-in-place code card and the VM are left out: no workload here
// touches them, and the stack-equivalence test shows the card serves
// exactly what core.NewSolidState's does.
type card struct {
	Clock   *sim.Clock
	DRAM    *dram.Device
	Flash   *flash.Device
	Engine  engine.Engine // the undecorated engine, for Stats and CheckInvariants
	Storage *storman.Manager
	FS      *fs.FS
}

// backend is the card as the server sees it; the server reaches the
// engine only for its cleaner-lag admission signal, so it gets the
// undecorated one and that signal costs no span.
func (c *card) backend() server.Backend {
	return server.Backend{FS: c.FS, Storage: c.Storage, Engine: c.Engine, Clock: c.Clock}
}

// cardDefaults mirrors the defaults core.NewSolidState applies to a
// SolidStateConfig (the stack-equivalence test keeps the two in step).
func cardDefaults(c core.SolidStateConfig) core.SolidStateConfig {
	if c.Banks == 0 {
		c.Banks = 4
	}
	if c.EraseBlockBytes == 0 {
		c.EraseBlockBytes = 64 * 1024
	}
	if c.BlockBytes == 0 {
		c.BlockBytes = 4096
	}
	if c.BufferBytes == 0 {
		c.BufferBytes = c.DRAMBytes / 4
	}
	if c.RBoxBytes == 0 {
		c.RBoxBytes = 1 << 20
	}
	if c.WriteBackDelay == 0 {
		c.WriteBackDelay = 30 * sim.Second
	}
	if !c.PlainFTL && c.Policy == ftl.PolicyDirect {
		c.Policy = ftl.PolicyCostBenefit
		c.HotCold = true
	}
	if c.Engine == "" {
		c.Engine = "ftl"
	}
	return c
}

// buildCard assembles a card. wrap, when non-nil, decorates the engine
// the storage manager programs against.
func buildCard(cfg core.SolidStateConfig, wrap func(engine.Engine) engine.Engine) (*card, error) {
	cfg = cardDefaults(cfg)
	clock := sim.NewClock()
	meter := sim.NewEnergyMeter()
	o := obs.Or(cfg.Obs)
	o.GaugeFunc("dropped_negative_charges", obs.Labels{"layer": "core", "system": "solid-state"},
		func() float64 { return float64(meter.DroppedNegativeCharges()) })

	dr, err := dram.New(dram.Config{CapacityBytes: cfg.DRAMBytes, Params: device.NECDram, Obs: o}, clock, meter)
	if err != nil {
		return nil, err
	}
	fd, err := flash.New(flash.Config{
		Banks:          cfg.Banks,
		BlocksPerBank:  int(cfg.FlashBytes / int64(cfg.Banks) / int64(cfg.EraseBlockBytes)),
		BlockBytes:     cfg.EraseBlockBytes,
		Params:         device.IntelFlash,
		SpareUnitBytes: cfg.BlockBytes,
		SpareBytes:     ftl.OOBRecordBytes,
		Obs:            o,
	}, clock, meter)
	if err != nil {
		return nil, err
	}
	var eng engine.Engine
	switch cfg.Engine {
	case "ftl":
		eng, err = engineftl.New(fd, clock, ftl.Config{
			PageBytes:          cfg.BlockBytes,
			ReserveBlocks:      3,
			IdleCleanThreshold: cfg.IdleCleanBlocks,
			Policy:             cfg.Policy,
			HotCold:            cfg.HotCold,
			BackgroundErase:    true,
			PersistMapping:     cfg.Policy != ftl.PolicyDirect,
			Obs:                o,
		})
	case "pdl":
		eng, err = pdl.New(fd, clock, pdl.Config{
			PageBytes:          cfg.BlockBytes,
			ReserveBlocks:      3,
			IdleCleanThreshold: cfg.IdleCleanBlocks,
			BackgroundErase:    true,
			Obs:                o,
		})
	default:
		err = fmt.Errorf("unknown engine %q", cfg.Engine)
	}
	if err != nil {
		return nil, err
	}
	under := eng
	if wrap != nil {
		under = wrap(eng)
	}
	sm, err := storman.New(storman.Config{
		BlockBytes:     cfg.BlockBytes,
		DRAMBase:       cfg.RBoxBytes,
		DRAMBytes:      cfg.BufferBytes,
		WriteBackDelay: cfg.WriteBackDelay,
		Obs:            o,
	}, clock, dr, under)
	if err != nil {
		return nil, err
	}
	f, err := fs.Mkfs(fs.Config{RBoxBytes: cfg.RBoxBytes, SnapshotEvery: cfg.SnapshotEvery, Obs: o}, clock, sm, dr)
	if err != nil {
		return nil, err
	}
	return &card{Clock: clock, DRAM: dr, Flash: fd, Engine: eng, Storage: sm, FS: f}, nil
}

// check runs the storage manager's and the engine's invariant checks.
func (c *card) check() error {
	if err := c.Storage.CheckInvariants(); err != nil {
		return fmt.Errorf("storman: %w", err)
	}
	if err := c.Engine.CheckInvariants(); err != nil {
		return fmt.Errorf("engine %s: %w", c.Engine.Name(), err)
	}
	return nil
}

// age streams bytes through the card in 4KB writes and deletes them, the
// way core ages a cluster node's card: the card starts full of dead
// pages, as months of use would leave it.
func (c *card) age(bytes int64) error {
	const chunk = 4096
	if err := c.FS.Create("/age"); err != nil {
		return err
	}
	buf := make([]byte, chunk)
	for i := range buf {
		buf[i] = byte(i)
	}
	for off := int64(0); off < bytes; off += chunk {
		if _, err := c.FS.WriteAt("/age", off, buf); err != nil {
			return err
		}
		if err := c.Storage.Tick(); err != nil {
			return err
		}
	}
	if err := c.FS.Sync(); err != nil {
		return err
	}
	return c.FS.Remove("/age")
}

// clusterNode assembles one cluster node the way core.NewClusterNode
// does (private observer stamped with the node name, aged card, server),
// keeping the card so the benchmark can read its engine and flash.
func clusterNode(name string, cfg core.SolidStateConfig, ageBytes int64,
	wrap func(engine.Engine) engine.Engine) (*cluster.Node, *card, error) {
	priv := obs.New(0)
	priv.Tracer.SetNode(name)
	cfg.Obs = priv
	c, err := buildCard(cfg, wrap)
	if err != nil {
		return nil, nil, fmt.Errorf("node %s: %w", name, err)
	}
	if err := c.age(ageBytes); err != nil {
		return nil, nil, fmt.Errorf("aging node %s: %w", name, err)
	}
	srv, err := server.New(c.backend(), server.Config{Obs: priv})
	if err != nil {
		return nil, nil, fmt.Errorf("node %s: %w", name, err)
	}
	return &cluster.Node{Name: name, Srv: srv, Clock: c.Clock, Obs: priv}, c, nil
}
