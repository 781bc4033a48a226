package compiler

import (
	"reflect"
	"testing"

	"voltron/internal/core"
	"voltron/internal/workload"
)

func TestEstimateOrdersConfigurations(t *testing.T) {
	// The estimator must rank a 4-core DOALL-style split below serial for
	// a parallel loop, and rank serial best for a serial recurrence.
	p := progStrands(256)
	pr := mustProfile(t, p)
	r := p.Regions[0]
	serial, err := genSerial(r, 4)
	if err != nil {
		t.Fatal(err)
	}
	ftlp, err := genFTLP(r, Options{Cores: 4, Profile: pr}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	es := EstimateCycles(serial, r, pr)
	ef := EstimateCycles(ftlp, r, pr)
	if es <= 0 || ef <= 0 {
		t.Fatalf("estimates non-positive: %g %g", es, ef)
	}
	if ef >= es {
		t.Errorf("strand loop: decoupled estimate %g >= serial %g (MLP invisible)", ef, es)
	}
}

func TestEstimateTracksMeasurement(t *testing.T) {
	// Across the corpus, serial estimates should correlate with measured
	// serial cycles within a generous factor (it is a ranking heuristic).
	for _, tc := range corpus {
		p := tc.mk()
		pr := mustProfile(t, p)
		cp, err := Compile(p, Options{Cores: 1, Strategy: Serial, Profile: pr})
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.New(core.DefaultConfig(1)).Run(cp)
		if err != nil {
			t.Fatal(err)
		}
		var est float64
		for i, r := range p.Regions {
			est += EstimateCycles(cp.Regions[i], r, pr)
		}
		if res.TotalCycles < 5000 {
			continue // cold-cache effects dominate tiny programs
		}
		ratio := est / float64(res.TotalCycles)
		if ratio < 0.25 || ratio > 4 {
			t.Errorf("%s: estimate %g vs measured %d (ratio %.2f)", tc.name, est, res.TotalCycles, ratio)
		}
	}
}

func TestClassifyProgramShapes(t *testing.T) {
	// DOALL loop -> LLP.
	if got := classifyFirst(t, progCopyAdd(64), 4); got.Choice != ChoseLLP {
		t.Errorf("copyadd selection = %v, want LLP", got.Choice)
	}
	// Serial recurrence -> never LLP; single or a technique that measured
	// better.
	if got := classifyFirst(t, progCarried(48), 4); got.Choice == ChoseLLP {
		t.Errorf("carried loop selected as LLP")
	}
	// Single core -> single: Compile lowers every region serially.
	if got := classifyFirst(t, progCopyAdd(64), 1); got.Choice != ChoseSingle {
		t.Errorf("1-core selection = %v, want single", got.Choice)
	}
	// Tiny region -> single (overhead floor).
	if got := classifyFirst(t, progCopyAdd(2), 4); got.Choice != ChoseSingle || got.Tier != TierSmall {
		t.Errorf("tiny region selection = %v (%v), want single (small)", got.Choice, got.Tier)
	}
}

func TestChoiceStrings(t *testing.T) {
	want := map[Choice]string{
		ChoseSingle: "single core", ChoseILP: "ILP",
		ChoseFTLP: "fine-grain TLP", ChoseLLP: "LLP",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
}

func TestStrategyStrings(t *testing.T) {
	want := map[Strategy]string{
		Serial: "serial", ForceILP: "ilp", ForceFTLP: "fine-grain-tlp",
		ForceLLP: "llp", Hybrid: "hybrid",
	}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("%v.String() = %q, want %q", int(s), s.String(), str)
		}
	}
}

// TestEstimateDeterministic pins the estimate of a region whose layout has
// empty blocks sharing an instruction index with the next block: the
// extents must be charged the same way on every call, not in label-map
// iteration order.
func TestEstimateDeterministic(t *testing.T) {
	p, err := workload.Random(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	Optimize(p)
	pr := mustProfile(t, p)
	r := p.Regions[1]
	ftlp, err := genFTLP(r, Options{Cores: 4, Strategy: Hybrid, Profile: pr}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	// On core 0, block 3 emits nothing and shares its label index with
	// block 5, laid out after it; block 5 owns the code there and is
	// charged for it (charging block 3, which never runs, gives 192).
	first := EstimateCycles(ftlp, r, pr)
	if first != 197 {
		t.Errorf("estimate %g cycles, want 197", first)
	}
	firstComm := EstimateQueueComm(ftlp, r, pr)
	for i := 0; i < 50; i++ {
		if got := EstimateCycles(ftlp, r, pr); got != first {
			t.Fatalf("estimate %d: %g cycles, first call gave %g", i, got, first)
		}
		if got := EstimateQueueComm(ftlp, r, pr); got != firstComm {
			t.Fatalf("queue estimate %d: %g cycles, first call gave %g", i, got, firstComm)
		}
	}
	opts := Options{Cores: 4, Strategy: Hybrid, Profile: pr}
	want, err := ClassifyProgram(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		got, err := ClassifyProgram(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("classification %d: %+v, first call gave %+v", i, got, want)
		}
	}
}
