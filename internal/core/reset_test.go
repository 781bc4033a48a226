package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"voltron/internal/compiler"
	"voltron/internal/core"
	"voltron/internal/ir"
	"voltron/internal/prof"
	"voltron/internal/workload"
)

// compileFor compiles p for one strategy × core count, collecting a profile
// the way the server's suite does.
func compileFor(t *testing.T, p *ir.Program, strat compiler.Strategy, cores int) *core.CompiledProgram {
	t.Helper()
	pr, err := prof.Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := compiler.Compile(p, compiler.Options{Cores: cores, Strategy: strat, Profile: pr})
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// assertSameRun requires the pooled rerun to be indistinguishable from the
// fresh-machine run: cycle counts, per-region cycles, per-core stall
// breakdowns, memory-system stats and the final memory image.
func assertSameRun(t *testing.T, name string, fresh, pooled *core.RunResult) {
	t.Helper()
	if !reflect.DeepEqual(fresh, pooled) {
		t.Errorf("%s: pooled run diverges from fresh run\nfresh:  cycles=%d regions=%v mem=%+v\npooled: cycles=%d regions=%v mem=%+v",
			name, fresh.TotalCycles, fresh.RegionCycles, fresh.MemStats,
			pooled.TotalCycles, pooled.RegionCycles, pooled.MemStats)
	}
}

// TestMachineResetMatchesFreshWorkloads is the pooled-vs-fresh differential
// over every built-in workload: one warm machine is reused (Reset, then Run)
// across all of them, and each result must equal a fresh machine's. Running
// different programs back to back is the adversarial case for pooling — any
// cache tag, queue entry, TM set or stat leaking through Reset shows up as
// a diverging result.
func TestMachineResetMatchesFreshWorkloads(t *testing.T) {
	cfg := core.DefaultConfig(4)
	warm := core.New(cfg)
	for _, name := range workload.Names() {
		p, err := workload.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		cp := compileFor(t, p, compiler.Hybrid, 4)
		fresh, err := core.New(cfg).Run(cp)
		if err != nil {
			t.Fatalf("%s fresh: %v", name, err)
		}
		warm.Reset(cfg)
		pooled, err := warm.Run(cp)
		if err != nil {
			t.Fatalf("%s pooled: %v", name, err)
		}
		assertSameRun(t, name, fresh, pooled)
	}
}

// TestMachineResetMatchesFreshRandom fuzzes the differential: 100 random
// programs cycling through all five strategies and two machine widths, each
// run on a per-width warm machine and compared against a fresh one.
func TestMachineResetMatchesFreshRandom(t *testing.T) {
	strategies := []compiler.Strategy{
		compiler.Serial, compiler.ForceILP, compiler.ForceFTLP, compiler.ForceLLP, compiler.Hybrid,
	}
	warm := map[int]*core.Machine{}
	for seed := 0; seed < 100; seed++ {
		p, err := workload.Random(int64(seed), 1+seed%3)
		if err != nil {
			t.Fatal(err)
		}
		strat := strategies[seed%len(strategies)]
		cores := 2 + 2*(seed/len(strategies)%2) // 2 or 4, interleaved per pool
		name := fmt.Sprintf("seed%d/%v/%dcores", seed, strat, cores)
		cp := compileFor(t, p, strat, cores)
		cfg := core.DefaultConfig(cores)
		fresh, err := core.New(cfg).Run(cp)
		if err != nil {
			t.Fatalf("%s fresh: %v", name, err)
		}
		m := warm[cores]
		if m == nil {
			m = core.New(cfg)
			warm[cores] = m
		}
		m.Reset(cfg)
		pooled, err := m.Run(cp)
		if err != nil {
			t.Fatalf("%s pooled: %v", name, err)
		}
		assertSameRun(t, name, fresh, pooled)
	}
}

// TestMachineResetShapeChange: a Reset to a different machine shape must
// rebuild (a 4-core memory system cannot serve a 2-core program), behaving
// exactly like New.
func TestMachineResetShapeChange(t *testing.T) {
	p, err := workload.Build("gsmdecode")
	if err != nil {
		t.Fatal(err)
	}
	cp4 := compileFor(t, p, compiler.Hybrid, 4)
	cp2 := compileFor(t, p, compiler.Hybrid, 2)
	m := core.New(core.DefaultConfig(4))
	if _, err := m.Run(cp4); err != nil {
		t.Fatal(err)
	}
	m.Reset(core.DefaultConfig(2))
	pooled, err := m.Run(cp2)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := core.New(core.DefaultConfig(2)).Run(cp2)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, "4-to-2-cores", fresh, pooled)
}

// latencyGrid is the machine-parameter sweep one warm machine is reset
// across: region-sync, mode-switch and queue latencies and capacities,
// including zero overheads, an unbounded queue (QueueCap -1) and returns
// to the defaults between them, so a setting that leaked through Reset
// would show up in the run after it.
func latencyGrid(cores int) []core.Config {
	set := func(rs, ms, qb, qh int64, qc int) core.Config {
		cfg := core.DefaultConfig(cores)
		cfg.RegionSyncLat, cfg.ModeSwitchLat = rs, ms
		cfg.QueueBaseLat, cfg.QueueHopLat, cfg.QueueCap = qb, qh, qc
		return cfg
	}
	return []core.Config{
		set(8, 6, 5, 4, 32),
		core.DefaultConfig(cores),
		set(2, 1, 1, 1, 4),
		set(0, 0, 0, 0, 0),
		set(3, 4, 2, 3, -1),
		core.DefaultConfig(cores),
		set(6, 3, 3, 2, 1),
	}
}

// TestMachineResetAcrossLatencies is the differential behind keying the
// machine pool by shape alone: one warm machine per width is Reset from
// latency setting to latency setting — the serving path's latency
// ablation sweep — and every run must equal a fresh machine's under the
// same config. It covers the 25 workloads at 4 cores and 50 random
// programs × 5 strategies × widths 2, 4 and 16.
func TestMachineResetAcrossLatencies(t *testing.T) {
	warm := map[int]*core.Machine{}
	step := 0
	check := func(name string, cp *core.CompiledProgram, cores int) {
		t.Helper()
		grid := latencyGrid(cores)
		m := warm[cores]
		if m == nil {
			m = core.New(grid[0])
			warm[cores] = m
		}
		// Two consecutive grid points per program: the first follows the
		// previous program's setting, the second this program's own.
		for k := 0; k < 2; k++ {
			cfg := grid[step%len(grid)]
			step++
			fresh, err := core.New(cfg).Run(cp)
			if err != nil {
				t.Fatalf("%s fresh: %v", name, err)
			}
			m.Reset(cfg)
			pooled, err := m.Run(cp)
			if err != nil {
				t.Fatalf("%s pooled: %v", name, err)
			}
			assertSameRun(t, fmt.Sprintf("%s/rs%d-ms%d-qb%d-qh%d-qc%d", name,
				cfg.RegionSyncLat, cfg.ModeSwitchLat, cfg.QueueBaseLat, cfg.QueueHopLat, cfg.QueueCap),
				fresh, pooled)
		}
	}
	for _, name := range workload.Names() {
		p, err := workload.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		check(name, compileFor(t, p, compiler.Hybrid, 4), 4)
	}
	strategies := []compiler.Strategy{
		compiler.Serial, compiler.ForceILP, compiler.ForceFTLP, compiler.ForceLLP, compiler.Hybrid,
	}
	for seed := 0; seed < 50; seed++ {
		p, err := workload.Random(int64(1000+seed), 1+seed%3)
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range strategies {
			for _, cores := range []int{2, 4, 16} {
				check(fmt.Sprintf("seed%d/%v/%dcores", 1000+seed, strat, cores),
					compileFor(t, p, strat, cores), cores)
			}
		}
	}
}
