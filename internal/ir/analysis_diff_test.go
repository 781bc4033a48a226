package ir_test

import (
	"fmt"
	"reflect"
	"testing"

	"voltron/internal/ir"
	"voltron/internal/workload"
)

// diffPrograms is the differential corpus: every suite workload plus 60
// random programs.
func diffPrograms(t *testing.T) []*ir.Program {
	t.Helper()
	var ps []*ir.Program
	for _, name := range workload.Names() {
		p, err := workload.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	for seed := int64(0); seed < 60; seed++ {
		p, err := workload.Random(seed, 3)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	return ps
}

// memOps returns the region's memory ops in block order.
func memOps(r *ir.Region) []*ir.Op {
	var ms []*ir.Op
	for _, o := range r.AllOps() {
		if o.Code.IsMemory() {
			ms = append(ms, o)
		}
	}
	return ms
}

// TestMemDepSharedContextMatchesFresh: one context shared by every query
// of a loop (how the compiler's pairwise scans use it) answers each pair
// exactly as a context built for that query alone.
func TestMemDepSharedContextMatchesFresh(t *testing.T) {
	pairs := 0
	for _, p := range diffPrograms(t) {
		for _, r := range p.Regions {
			ms := memOps(r)
			for _, l := range append([]*ir.Loop{nil}, r.Loops()...) {
				ctx := r.NewAffineCtx(l)
				for _, a := range ms {
					for _, b := range ms {
						pairs++
						if got, want := r.MemDep(a, b, l, ctx), r.MemDep(a, b, l, nil); got != want {
							t.Fatalf("%s/%s: MemDep(%v, %v) = %v with a shared context, %v with a fresh one",
								p.Name, r.Name, a, b, got, want)
						}
					}
				}
			}
		}
	}
	if pairs == 0 {
		t.Fatal("corpus has no memory-op pairs")
	}
}

// TestAffineLazyIndexMatchesEager: a context that indexes defs on first
// lookup derives the same address expressions as one indexed up front,
// and once built its index is the eager one.
func TestAffineLazyIndexMatchesEager(t *testing.T) {
	for _, p := range diffPrograms(t) {
		for _, r := range p.Regions {
			for _, l := range append([]*ir.Loop{nil}, r.Loops()...) {
				lazy, eager := r.NewAffineCtx(l), r.EagerAffineCtx(l)
				for _, o := range memOps(r) {
					got, want := r.AddrExprOf(o, l, lazy), r.AddrExprOf(o, l, eager)
					if got != want {
						t.Fatalf("%s/%s: AddrExprOf(%v) = %+v lazily, %+v eagerly", p.Name, r.Name, o, got, want)
					}
				}
				if idx := lazy.DefIndex(); idx != nil && !reflect.DeepEqual(idx, eager.DefIndex()) {
					t.Fatalf("%s/%s: lazy def index differs from the eager one", p.Name, r.Name)
				}
			}
		}
	}
}

// TestMemDepSkipsIndexWhenObjectsDecide: pairs that resolve on opcode or
// object alone never build the def index.
func TestMemDepSkipsIndexWhenObjectsDecide(t *testing.T) {
	for _, p := range diffPrograms(t) {
		for _, r := range p.Regions {
			ms := memOps(r)
			for _, a := range ms {
				for _, b := range ms {
					decided := !a.Code.IsStore() && !b.Code.IsStore() ||
						a.Obj != b.Obj || a.Obj == ir.UnknownObj
					if !decided {
						continue
					}
					ctx := r.NewAffineCtx(nil)
					r.MemDep(a, b, nil, ctx)
					if ctx.DefIndex() != nil {
						t.Fatalf("%s/%s: MemDep(%v, %v) built the def index", p.Name, r.Name, a, b)
					}
				}
			}
		}
	}
}

// filteredUses is the reference Uses: a fresh slice of the non-empty
// operands.
func filteredUses(o *ir.Op) []ir.Value {
	var vs []ir.Value
	for _, a := range o.Args {
		if a != ir.NoValue {
			vs = append(vs, a)
		}
	}
	return vs
}

// checkUses asserts Uses equals the reference filter and that appending to
// its result leaves the op's operands alone.
func checkUses(t *testing.T, where string, o *ir.Op) {
	t.Helper()
	args := o.Args
	got := o.Uses()
	if want := filteredUses(o); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: %v Uses() = %v, want %v", where, o, got, want)
	}
	_ = append(got, 99)
	if o.Args != args {
		t.Fatalf("%s: appending to Uses() of %v changed Args from %v to %v", where, o, args, o.Args)
	}
}

func TestUsesMatchesFilter(t *testing.T) {
	for i, args := range [][2]ir.Value{{0, 0}, {3, 0}, {0, 4}, {3, 4}} {
		checkUses(t, fmt.Sprintf("operand shape %d", i), &ir.Op{Args: args})
	}
	for _, p := range diffPrograms(t) {
		for _, r := range p.Regions {
			for _, o := range r.AllOps() {
				checkUses(t, p.Name+"/"+r.Name, o)
			}
		}
	}
}

func TestUsesDoesNotAllocate(t *testing.T) {
	ops := []*ir.Op{{Args: [2]ir.Value{3, 0}}, {Args: [2]ir.Value{0, 4}}, {Args: [2]ir.Value{3, 4}}}
	n := 0
	allocs := testing.AllocsPerRun(100, func() {
		for _, o := range ops {
			n += len(o.Uses())
		}
	})
	if allocs != 0 {
		t.Fatalf("Uses allocated %.0f times per run, want 0", allocs)
	}
}
