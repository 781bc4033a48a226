package core_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"voltron/internal/compiler"
	"voltron/internal/core"
	"voltron/internal/ir"
	"voltron/internal/isa"
	"voltron/internal/workload"
)

// stepRest runs m's remaining regions of cp and finishes the run.
func stepRest(t *testing.T, name string, m *core.Machine, cp *core.CompiledProgram) *core.RunResult {
	t.Helper()
	for r := m.NextRegion(); r < len(cp.Regions); r++ {
		if _, err := m.StepRegion(cp.Regions[r]); err != nil {
			t.Fatalf("%s: region %d: %v", name, r, err)
		}
	}
	return m.Finish()
}

// checkCopyAtBoundaries is the boundary-state differential behind measured
// selection: at every region boundary of one stepped run, the state is
// copied into another machine, which runs the remaining regions; its result
// must equal one uninterrupted RunContext — cycles, region times, per-core
// stall breakdowns, memory stats and the final image. Each boundary is
// copied twice: into a fresh machine (whose clocks and LRU stamps start at
// zero) and, in place, over a machine left mid-run one region further on
// (whose clocks, bank and bus reservations and fetch memos are ahead), so a
// field CopyFrom forgot shows up whichever way it leaks.
func checkCopyAtBoundaries(t *testing.T, name string, cp *core.CompiledProgram, cfg core.Config) {
	t.Helper()
	want, err := core.New(cfg).Run(cp)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	src, dirty := core.New(cfg), core.New(cfg)
	if err := src.Begin(context.Background(), cp); err != nil {
		t.Fatal(err)
	}
	for b := 0; ; b++ {
		at := fmt.Sprintf("%s@%d", name, b)
		fresh := core.New(cfg)
		if err := fresh.CopyFrom(src); err != nil {
			t.Fatalf("%s: %v", at, err)
		}
		assertSameRun(t, at+"/fresh", want, stepRest(t, at, fresh, cp))

		if err := dirty.CopyFrom(src); err != nil {
			t.Fatalf("%s: %v", at, err)
		}
		if b < len(cp.Regions) {
			if _, err := dirty.StepRegion(cp.Regions[b]); err != nil {
				t.Fatalf("%s: %v", at, err)
			}
		}
		if err := dirty.CopyFrom(src); err != nil {
			t.Fatalf("%s: %v", at, err)
		}
		assertSameRun(t, at+"/in-place", want, stepRest(t, at, dirty, cp))

		if b == len(cp.Regions) {
			break
		}
		if _, err := src.StepRegion(cp.Regions[b]); err != nil {
			t.Fatalf("%s: %v", at, err)
		}
	}
	assertSameRun(t, name+"/source", want, src.Finish())
}

// copyStrategies are the multicore strategies whose lowerings the boundary
// differential covers (Serial lowers every region the same way).
var copyStrategies = []compiler.Strategy{compiler.ForceILP, compiler.ForceFTLP, compiler.ForceLLP, compiler.Hybrid}

// TestCopyFromMatchesRunWorkloads covers the 25 workloads under every
// multicore strategy at 2 and 4 cores, with stats on and with NoStats.
func TestCopyFromMatchesRunWorkloads(t *testing.T) {
	for _, name := range workload.Names() {
		p, err := workload.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range copyStrategies {
			for _, cores := range []int{2, 4} {
				cp := compileFor(t, p, strat, cores)
				for _, noStats := range []bool{false, true} {
					cfg := core.DefaultConfig(cores)
					cfg.NoStats = noStats
					checkCopyAtBoundaries(t, fmt.Sprintf("%s/%v/%dcores/nostats=%v", name, strat, cores, noStats), cp, cfg)
				}
			}
		}
	}
}

// TestCopyFromMatchesRunRandom covers random programs (seeds 0-59, one to
// four regions) under every multicore strategy at 2 and 4 cores.
func TestCopyFromMatchesRunRandom(t *testing.T) {
	for seed := 0; seed < 60; seed++ {
		p, err := workload.Random(int64(seed), 1+seed%4)
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range copyStrategies {
			for _, cores := range []int{2, 4} {
				cfg := core.DefaultConfig(cores)
				cfg.NoStats = seed%2 == 1
				checkCopyAtBoundaries(t, fmt.Sprintf("seed%d/%v/%dcores", seed, strat, cores),
					compileFor(t, p, strat, cores), cfg)
			}
		}
	}
}

// setConflictProgram is a two-region, one-core program built so that the
// second region's timing depends on the L2's LRU order from the first: the
// first loads four lines into one L2 set (filling its four ways), the
// second loads three more lines of that set and then re-reads the first of
// them, which has left the two-way L1D by then. The re-read hits the L2
// only if each new fill evicted one of the older lines, as LRU demands.
func setConflictProgram() *core.CompiledProgram {
	const setStride = 128 << 10 / 4 // L2 bytes per way: same set, next tag
	p := ir.NewProgram("set-conflict")
	arr := p.Array("a", 8*setStride/8+1024)
	region := func(name string, lines ...int64) *core.CompiledRegion {
		var code []isa.Inst
		for _, k := range lines {
			code = append(code,
				isa.Inst{Op: isa.MOVI, Dst: isa.GPR(1), Imm: arr.Base + 6400 + k*setStride},
				isa.Nop(), isa.Nop(),
				isa.Inst{Op: isa.LOAD, Dst: isa.GPR(2), Src1: isa.GPR(1)})
		}
		code = append(code, isa.Inst{Op: isa.HALT})
		return &core.CompiledRegion{
			Name: name, Mode: core.Decoupled,
			Code: [][]isa.Inst{code}, Labels: []map[int64]int{{}},
			Entry: []int{0}, StartAwake: []bool{true},
		}
	}
	return &core.CompiledProgram{
		Name: p.Name, Cores: 1, Src: p,
		Regions: []*core.CompiledRegion{region("fill", 0, 1, 2, 3), region("evict", 4, 5, 6, 4)},
	}
}

// TestCopyFromKeepsLRUOrder: the copied L2 must keep evicting in the
// source's LRU order, clock included — a destination whose L2 clock
// restarted would stamp new fills older than the copied lines.
func TestCopyFromKeepsLRUOrder(t *testing.T) {
	checkCopyAtBoundaries(t, "set-conflict", setConflictProgram(), core.DefaultConfig(1))
}

// TestCopyFromRejectsOtherShapes: boundary state only transfers between
// machines of one shape (core count, memory geometry, mesh), and only from
// a run in progress.
func TestCopyFromRejectsOtherShapes(t *testing.T) {
	p, err := workload.Build("gsmdecode")
	if err != nil {
		t.Fatal(err)
	}
	cp := compileFor(t, p, compiler.Hybrid, 4)
	src := core.New(core.DefaultConfig(4))
	if err := core.New(core.DefaultConfig(4)).CopyFrom(src); err == nil || !strings.Contains(err.Error(), "no run in progress") {
		t.Errorf("copy from an idle machine: err = %v", err)
	}
	if err := src.Begin(context.Background(), cp); err != nil {
		t.Fatal(err)
	}
	if _, err := src.StepRegion(cp.Regions[0]); err != nil {
		t.Fatal(err)
	}
	bigL2 := core.DefaultConfig(4)
	bigL2.Mem.L2.SizeBytes *= 2
	square := core.DefaultConfig(8)
	row := core.DefaultConfig(8)
	row.MeshCols = 8
	for _, tc := range []struct {
		name     string
		dst, src core.Config
	}{
		{"2-from-4-cores", core.DefaultConfig(2), core.DefaultConfig(4)},
		{"l2-geometry", bigL2, core.DefaultConfig(4)},
		{"mesh-columns", row, square},
	} {
		from := src
		if tc.src.Cores != 4 {
			from = core.New(tc.src)
			empty := &core.CompiledProgram{Name: "empty", Cores: tc.src.Cores, Src: cp.Src}
			if err := from.Begin(context.Background(), empty); err != nil {
				t.Fatal(err)
			}
		}
		if err := core.New(tc.dst).CopyFrom(from); err == nil || !strings.Contains(err.Error(), "shape") {
			t.Errorf("%s: err = %v, want a shape error", tc.name, err)
		}
	}
	// Run-time latencies are not shape: a machine with other region
	// overheads accepts the state and applies its own from there on.
	slow := core.DefaultConfig(4)
	slow.RegionSyncLat = 9
	if err := core.New(slow).CopyFrom(src); err != nil {
		t.Errorf("copy across latency settings: %v", err)
	}
}
