package compiler

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"voltron/internal/core"
	"voltron/internal/ir"
	"voltron/internal/isa"
	"voltron/internal/lang"
	"voltron/internal/workload"
)

// goldenFile holds one digest per compiled program: every region's code,
// labels, entry points, mode and DOALL fallback, for the 25 suite workloads
// under each multicore strategy at 2 and 4 cores plus the examples/lang
// corpus at hybrid/4. It is the byte-level oracle for compile-path
// refactors: an optimisation of the compiler must leave every digest as it
// is.
const goldenFile = "testdata/compile_digests.txt"

// digestProgram hashes everything a CompiledProgram's execution depends on.
func digestProgram(cp *core.CompiledProgram) string {
	h := sha256.New()
	for _, cr := range cp.Regions {
		fmt.Fprintf(h, "region %q mode=%d tx=%d entry=%v awake=%v\n", cr.Name, cr.Mode, cr.TxCores, cr.Entry, cr.StartAwake)
		for c, code := range cr.Code {
			fmt.Fprintf(h, "core %d\n", c)
			digestCode(h, code)
			digestLabels(h, cr.Labels[c])
		}
		fmt.Fprintf(h, "fallback\n")
		digestCode(h, cr.Fallback)
		digestLabels(h, cr.FallbackLabels)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func digestCode(h hash.Hash, code []isa.Inst) {
	for _, in := range code {
		fmt.Fprintf(h, "%d %d.%d %d.%d %d.%d %d %x %d %d %d\n", in.Op,
			in.Dst.Class, in.Dst.Index, in.Src1.Class, in.Src1.Index, in.Src2.Class, in.Src2.Index,
			in.Imm, math.Float64bits(in.F), in.Dir, in.Core, in.IROp)
	}
}

func digestLabels(h hash.Hash, labels map[int64]int) {
	keys := make([]int64, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		fmt.Fprintf(h, "L%d=%d\n", k, labels[k])
	}
}

// goldenDigests compiles the golden corpus and returns one line per
// program, in a fixed order.
func goldenDigests(t testing.TB) []string {
	var lines []string
	add := func(name string, p *ir.Program, s Strategy, cores int) {
		cp, err := Compile(p, Options{Cores: cores, Strategy: s})
		if err != nil {
			t.Fatalf("%s %v/%d: %v", name, s, cores, err)
		}
		lines = append(lines, fmt.Sprintf("%s %v %d %s", name, s, cores, digestProgram(cp)))
	}
	for _, name := range workload.Names() {
		p, err := workload.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []Strategy{ForceILP, ForceFTLP, ForceLLP, Hybrid} {
			for _, cores := range []int{2, 4} {
				add(name, p, s, cores)
			}
		}
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "lang", "*.vs"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	sort.Strings(paths)
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(path)
		p, err := lang.Compile(string(src), name, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		add(name, p, Hybrid, 4)
	}
	return lines
}

// TestCompileOutputGolden asserts that compiling the golden corpus still
// produces the recorded code, byte for byte.
func TestCompileOutputGolden(t *testing.T) {
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	got := goldenDigests(t)
	if len(got) != len(want) {
		t.Fatalf("golden corpus has %d programs, %s records %d", len(got), goldenFile, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("compile output changed:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
