package compiler

import (
	"fmt"
	"reflect"
	"testing"

	"voltron/internal/core"
	"voltron/internal/ir"
	"voltron/internal/prof"
	"voltron/internal/workload"
)

// compileWorkers compiles p with an explicit measured-selection worker
// count, failing the test on error.
func compileWorkers(t *testing.T, p *ir.Program, strat Strategy, cores, workers int) *core.CompiledProgram {
	t.Helper()
	pr, err := prof.Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := Compile(p, Options{Cores: cores, Strategy: strat, Profile: pr, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// TestMeasuredSelectionDeterministic asserts the tentpole guarantee of the
// parallel measured-selection pipeline: for any worker count, the selected
// program is identical to the sequential (Workers=1) pipeline's — same
// per-region strategies, same instruction streams, byte for byte.
func TestMeasuredSelectionDeterministic(t *testing.T) {
	cases := []struct {
		name  string
		mk    func() *ir.Program
		strat Strategy
	}{
		{"multi-region-hybrid", progMultiRegion, Hybrid},
		{"diamond-hybrid", func() *ir.Program { return progDiamond(256) }, Hybrid},
		{"strands-ftlp", func() *ir.Program { return progStrands(512) }, ForceFTLP},
		{"copyadd-ilp", func() *ir.Program { return progCopyAdd(128) }, ForceILP},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := c.mk()
			seq := compileWorkers(t, p, c.strat, 4, 1)
			for _, workers := range []int{2, 8} {
				par := compileWorkers(t, p, c.strat, 4, workers)
				if !reflect.DeepEqual(seq.Regions, par.Regions) {
					for i := range seq.Regions {
						if !reflect.DeepEqual(seq.Regions[i], par.Regions[i]) {
							t.Errorf("workers=%d: region %q diverges from sequential selection (mode %v vs %v)",
								workers, seq.Regions[i].Name, seq.Regions[i].Mode, par.Regions[i].Mode)
						}
					}
				}
			}
		})
	}
}

// TestMeasuredSelectionDeterministicOnBenchmarks repeats the determinism
// check on real suite benchmarks covering the three parallelism classes.
func TestMeasuredSelectionDeterministicOnBenchmarks(t *testing.T) {
	for _, bench := range []string{"gsmdecode", "179.art", "171.swim"} {
		t.Run(bench, func(t *testing.T) {
			p, err := workload.Build(bench)
			if err != nil {
				t.Fatal(err)
			}
			seq := compileWorkers(t, p, Hybrid, 4, 1)
			par := compileWorkers(t, p, Hybrid, 4, 8)
			if !reflect.DeepEqual(seq.Regions, par.Regions) {
				t.Errorf("%s: parallel selection diverges from sequential", bench)
			}
		})
	}
}

// oracleRegionCycles is how measured selection timed a candidate before it
// measured from region-boundary state: the committed program with the
// candidate installed at region i, simulated in full from cycle 0, read at
// RegionCycles[i] (-1 when the run fails anywhere).
func oracleRegionCycles(cp *core.CompiledProgram, i int, cand *core.CompiledRegion) int64 {
	bg := &core.CompiledProgram{
		Name: cp.Name, Cores: cp.Cores, Src: cp.Src,
		Regions: append([]*core.CompiledRegion(nil), cp.Regions...),
	}
	bg.Regions[i] = cand
	cfg := core.DefaultConfig(cp.Cores)
	cfg.NoStats = true
	res, err := core.New(cfg).Run(bg)
	if err != nil {
		return -1
	}
	return res.RegionCycles[i]
}

// checkBoundaryMeasurement replays compileMeasured's selection loop and
// asserts that every candidate's region time, measured from the boundary
// state (after earlier winners were adopted as the prefix), equals the
// full-program oracle's — and that the replay selects Compile's program.
func checkBoundaryMeasurement(t *testing.T, name string, p *ir.Program, opts Options) {
	t.Helper()
	want, err := Compile(p, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	opts = opts.withDefaults()
	plans := planRegions(p, opts)
	cp := &core.CompiledProgram{Name: p.Name, Cores: opts.Cores, Src: p, Regions: make([]*core.CompiledRegion, len(plans))}
	for i, pl := range plans {
		cp.Regions[i] = pl.serial
	}
	pool, err := newEvalPool(opts, cp, cp)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for i, pl := range plans {
		if pl.doall != nil && !pl.small {
			cp.Regions[i] = pl.doall
		}
		if pl.small || pl.doall != nil || len(pl.candidates) == 0 {
			continue
		}
		crs := make([]*core.CompiledRegion, len(pl.candidates))
		for k := range pl.candidates {
			crs[k] = pl.candidates[k].cr
		}
		got := append([]int64(nil), pool.measure(i, crs)...)
		for k, cand := range crs {
			if oracle := oracleRegionCycles(cp, i, cand); got[k] != oracle {
				t.Errorf("%s: region %d candidate %v: %d cycles from the boundary, %d in a full-program run",
					name, i, pl.candidates[k].choice, got[k], oracle)
			}
		}
		measureRegion(pool, i, pl)
	}
	if g, w := digestProgram(cp), digestProgram(want); g != w {
		t.Errorf("%s: replayed selection differs from Compile's", name)
	}
}

// TestBoundaryMeasurementMatchesFullRuns is the differential behind
// measuring a candidate from its region's boundary: the 25 workloads under
// the three measured strategies at 2 and 4 cores, and random programs.
func TestBoundaryMeasurementMatchesFullRuns(t *testing.T) {
	for _, name := range workload.Names() {
		p, err := workload.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := prof.Collect(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range []Strategy{Hybrid, ForceILP, ForceFTLP} {
			for _, cores := range []int{2, 4} {
				checkBoundaryMeasurement(t, fmt.Sprintf("%s/%v/%d", name, strat, cores), p,
					Options{Cores: cores, Strategy: strat, Profile: pr, Workers: cores / 2})
			}
		}
	}
	for seed := 0; seed < 60; seed++ {
		p, err := workload.Random(int64(seed), 1+seed%4)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := prof.Collect(p)
		if err != nil {
			t.Fatal(err)
		}
		checkBoundaryMeasurement(t, fmt.Sprintf("seed%d", seed), p,
			Options{Cores: 2 + 2*(seed%2), Strategy: Hybrid, Profile: pr})
	}
}

// TestSelectionSimCyclesCeiling is the deterministic cost gate of measured
// selection: the cycles one hybrid/4 compile simulates to choose its
// lowerings (serial baseline, prefix steps, candidate regions). Measuring
// each candidate over the whole program cost 93236, 391414 and 141127
// cycles for these three; measuring its region from the boundary state,
// with winners adopted as the prefix, costs 84141, 232360 and 88420. Each
// ceiling sits between the two, so a return to full-program candidate runs
// (or any extra re-simulation) fails.
func TestSelectionSimCyclesCeiling(t *testing.T) {
	for _, tc := range []struct {
		bench   string
		ceiling int64
	}{
		{"gsmdecode", 88000},
		{"179.art", 300000},
		{"mpeg2dec", 110000},
	} {
		p, err := workload.Build(tc.bench)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := Compile(p, Options{Cores: 4, Strategy: Hybrid, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		got := cp.Selection.SimCycles
		t.Logf("%s hybrid/4: selection simulated %d cycles (ceiling %d)", tc.bench, got, tc.ceiling)
		if got == 0 || got > tc.ceiling {
			t.Errorf("%s: selection simulated %d cycles, want (0, %d]", tc.bench, got, tc.ceiling)
		}
	}
}

// TestNoThresholdSentinel covers the threshold encoding: 0 means "apply the
// paper's default", NoThreshold (negative) disables the gate entirely.
func TestNoThresholdSentinel(t *testing.T) {
	// withDefaults semantics, including double application (the sentinel
	// must survive a second pass rather than resurrecting the default).
	o := Options{DOALLTripThreshold: NoThreshold}.withDefaults()
	if o.DOALLTripThreshold >= 0 {
		t.Errorf("NoThreshold resolved to %v, want a preserved negative sentinel", o.DOALLTripThreshold)
	}
	if o2 := o.withDefaults(); o2.DOALLTripThreshold >= 0 {
		t.Errorf("double withDefaults resurrected the gate: %v", o2.DOALLTripThreshold)
	}
	if d := (Options{}).withDefaults(); d.DOALLTripThreshold != 8 || d.DSWPThreshold != 1.25 {
		t.Errorf("unset thresholds = %v/%v, want defaults 8/1.25", d.DOALLTripThreshold, d.DSWPThreshold)
	}

	// Behavior: a 4-trip DOALL loop is below the default trip threshold
	// (8), so ForceLLP falls back to serial — but with NoThreshold the
	// gate is off and the loop is chunked.
	p := progCopyAdd(4)
	pr, err := prof.Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	gated, err := Compile(p, Options{Cores: 2, Strategy: ForceLLP, Profile: pr})
	if err != nil {
		t.Fatal(err)
	}
	if gated.Regions[0].Mode == core.DOALL {
		t.Error("trip count 4 passed the default threshold of 8")
	}
	open, err := Compile(p, Options{Cores: 2, Strategy: ForceLLP, Profile: pr, DOALLTripThreshold: NoThreshold})
	if err != nil {
		t.Fatal(err)
	}
	if open.Regions[0].Mode != core.DOALL {
		t.Errorf("NoThreshold: region mode %v, want DOALL", open.Regions[0].Mode)
	}
}

// BenchmarkMeasuredSelection isolates measured strategy selection on one
// mid-size workload, so the baseline-hoisting and worker-pool wins are
// individually visible in go test -bench.
func BenchmarkMeasuredSelection(b *testing.B) {
	p, err := workload.Build("gsmdecode")
	if err != nil {
		b.Fatal(err)
	}
	pr, err := prof.Collect(p)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=max", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Compile(p, Options{Cores: 4, Strategy: Hybrid, Profile: pr, Workers: bc.workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
