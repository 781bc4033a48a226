package compiler

import (
	"os"
	"runtime"
	"testing"

	"voltron/internal/ir"
	"voltron/internal/lang"
)

// allocGuardProgram is the fixed program of the compile-path allocation
// guard: the corpus's loop nest (matmul), compiled hybrid on 4 cores with
// measured selection on one worker.
const allocGuardProgram = "../../examples/lang/matmul.vs"

var allocGuardOptions = Options{Cores: 4, Strategy: Hybrid, Workers: 1}

// guardSource reads the guard program's source.
func guardSource(tb testing.TB) string {
	tb.Helper()
	src, err := os.ReadFile(allocGuardProgram)
	if err != nil {
		tb.Fatal(err)
	}
	return string(src)
}

// lowerGuard lowers a fresh copy of the guard program: Compile prepares
// the IR in place once per program, so every measured compile needs its
// own.
func lowerGuard(tb testing.TB, src string) *ir.Program {
	tb.Helper()
	p, err := lang.Compile(src, "matmul", nil)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// BenchmarkCompileSource times one cold compile of the guard program
// (profiling, planning, every candidate lowering, measured selection).
// The frontend runs off the clock.
func BenchmarkCompileSource(b *testing.B) {
	src := guardSource(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := lowerGuard(b, src)
		b.StartTimer()
		if _, err := Compile(p, allocGuardOptions); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCompileAllocCeiling is the allocation guard for the compile path.
// Each analysis is built once per region, loop or generator, so one
// compile of the guard program allocates about 8.0k objects; rebuilding
// the affine def index per query, a block DFG per core, a message plan
// for single-core lowerings or a slice per Op.Uses call roughly doubles
// that. The ceiling leaves about 7% headroom.
func TestCompileAllocCeiling(t *testing.T) {
	src := guardSource(t)
	const runs = 5
	var total uint64
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		p := lowerGuard(t, src)
		runtime.ReadMemStats(&before)
		if _, err := Compile(p, allocGuardOptions); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		total += after.Mallocs - before.Mallocs
	}
	allocs := float64(total) / runs
	const ceiling = 8600
	t.Logf("hybrid/4 compile of %s: %.0f objects", allocGuardProgram, allocs)
	if allocs > ceiling {
		t.Errorf("compile allocates %.0f objects, ceiling %d — an analysis is being rebuilt per query", allocs, ceiling)
	}
}
