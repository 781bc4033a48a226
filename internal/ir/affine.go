package ir

import "voltron/internal/isa"

// Affine address analysis: for a memory operation inside a loop, derive the
// access pattern base + stride*i + offset in terms of the loop's canonical
// induction variable. This is the compiler's stand-in for the
// pointer/dependence analysis of Nystrom et al. that the paper relies on:
// it lets the dependence graph prove independence of same-array references
// and compute loop-carried dependence distances for affine accesses, while
// anything non-affine stays conservatively "may alias".

// AddrExpr is a symbolic address: Arr.Base + Stride*iv + Offset (bytes).
// Known reports whether the derivation succeeded. An expression with
// Stride == 0 is a loop-invariant address.
type AddrExpr struct {
	Known  bool
	Arr    *Array
	Stride int64 // bytes per induction step
	Offset int64 // bytes from array base at iv = 0 (symbolic origin)
	// IVBased reports whether the expression references the induction
	// variable at all (false for pure loop invariants).
	IVBased bool
}

// AffineCtx caches single-def lookups during derivation. The def index
// covers every op in the region and is built on the first lookup, so a
// context whose queries all resolve on opcode or object alone costs
// nothing. Callers issuing many AddrExprOf/MemDep queries against the same
// (region, loop) should build the context once with NewAffineCtx and pass
// it in rather than passing nil per query. A context must not outlive a
// mutation of the region's ops.
type AffineCtx struct {
	r    *Region
	l    *Loop // may be nil for straight-line analysis
	iv   Value
	defs map[Value][]*Op // nil until the first lookup
}

// NewAffineCtx builds a reusable derivation context for a loop (which may be
// nil for straight-line analysis).
func (r *Region) NewAffineCtx(l *Loop) *AffineCtx { return r.newAffineCtx(l) }

func (r *Region) newAffineCtx(l *Loop) *AffineCtx {
	c := &AffineCtx{r: r, l: l}
	if l != nil && l.Induction != nil {
		c.iv = l.Induction.Val
	}
	return c
}

// defsOf returns the region's defs of v, indexing the region on first use.
func (c *AffineCtx) defsOf(v Value) []*Op {
	if c.defs == nil {
		c.defs = map[Value][]*Op{}
		for _, b := range c.r.Blocks {
			for _, o := range b.Ops {
				if o.Dst != NoValue {
					c.defs[o.Dst] = append(c.defs[o.Dst], o)
				}
			}
		}
	}
	return c.defs[v]
}

// term is an intermediate linear form a*iv + b.
type term struct {
	ok   bool
	a, b int64
	ivb  bool
}

func (c *AffineCtx) eval(v Value, depth int) term {
	if depth > 16 {
		return term{}
	}
	if v == c.iv && c.iv != NoValue {
		return term{ok: true, a: 1, ivb: true}
	}
	ds := c.defsOf(v)
	// The value must have a single reaching definition for the linear form
	// to be well-defined; the induction variable itself is handled above.
	var d *Op
	for _, o := range ds {
		if c.l != nil && !c.l.Blocks[o.Blk.ID] {
			// defs outside the loop are fine if they are the only ones
			continue
		}
		if d != nil {
			return term{}
		}
		d = o
	}
	if d == nil {
		if len(ds) == 1 {
			d = ds[0]
		} else {
			return term{}
		}
	} else if len(ds) > 1 {
		// One in-loop def plus out-of-loop init: not a stable linear form
		// unless it is the iv (handled above).
		return term{}
	}
	switch d.Code {
	case isa.MOVI:
		return term{ok: true, b: d.Imm}
	case isa.ADD:
		x := c.eval(d.Args[0], depth+1)
		if !x.ok {
			return term{}
		}
		if d.Args[1] == NoValue {
			return term{ok: true, a: x.a, b: x.b + d.Imm, ivb: x.ivb}
		}
		y := c.eval(d.Args[1], depth+1)
		if !y.ok {
			return term{}
		}
		return term{ok: true, a: x.a + y.a, b: x.b + y.b, ivb: x.ivb || y.ivb}
	case isa.SUB:
		x := c.eval(d.Args[0], depth+1)
		if !x.ok {
			return term{}
		}
		if d.Args[1] == NoValue {
			return term{ok: true, a: x.a, b: x.b - d.Imm, ivb: x.ivb}
		}
		y := c.eval(d.Args[1], depth+1)
		if !y.ok {
			return term{}
		}
		return term{ok: true, a: x.a - y.a, b: x.b - y.b, ivb: x.ivb || y.ivb}
	case isa.SHL:
		x := c.eval(d.Args[0], depth+1)
		if !x.ok || d.Args[1] != NoValue {
			return term{}
		}
		return term{ok: true, a: x.a << uint(d.Imm), b: x.b << uint(d.Imm), ivb: x.ivb}
	case isa.MUL:
		x := c.eval(d.Args[0], depth+1)
		if !x.ok || d.Args[1] != NoValue {
			return term{}
		}
		return term{ok: true, a: x.a * d.Imm, b: x.b * d.Imm, ivb: x.ivb}
	}
	return term{}
}

// AddrExprOf derives the affine address expression of a memory op relative
// to loop l (may be nil: then only loop-invariant constant addresses
// resolve). The result's Offset is absolute when Arr is nil.
func (r *Region) AddrExprOf(o *Op, l *Loop, ctx *AffineCtx) AddrExpr {
	if !o.Code.IsMemory() {
		return AddrExpr{}
	}
	if ctx == nil {
		ctx = r.newAffineCtx(l)
	}
	t := ctx.eval(o.Args[0], 0)
	if !t.ok {
		return AddrExpr{}
	}
	addr0 := t.b + o.Imm
	var arr *Array
	if o.Obj != UnknownObj && o.Obj >= 0 && o.Obj < len(r.Program.Arrays) {
		arr = r.Program.Arrays[o.Obj]
		addr0 -= arr.Base
	}
	// Scale stride by the induction step (iv advances Step per iteration).
	stride := t.a
	if l != nil && l.Induction != nil {
		stride *= l.Induction.Step
	}
	return AddrExpr{Known: true, Arr: arr, Stride: stride, Offset: addr0, IVBased: t.ivb}
}

// MemDepKind classifies the relation between two memory references.
type MemDepKind uint8

// Memory dependence classifications.
const (
	// MemNoDep: proven independent.
	MemNoDep MemDepKind = iota
	// MemIntraDep: may touch the same address within one iteration (or in
	// straight-line code).
	MemIntraDep
	// MemCarriedDep: may touch the same address across iterations.
	MemCarriedDep
	// MemBothDep: may conflict both within and across iterations (the
	// conservative answer for unanalyzable references).
	MemBothDep
)

// MemDep classifies the dependence between memory ops a and b with respect
// to loop l (nil = straight-line: only intra matters). At least one of the
// two must be a store for a dependence to exist.
func (r *Region) MemDep(a, b *Op, l *Loop, ctx *AffineCtx) MemDepKind {
	if !a.Code.IsStore() && !b.Code.IsStore() {
		return MemNoDep
	}
	// Distinct known objects never alias.
	if a.Obj != UnknownObj && b.Obj != UnknownObj && a.Obj != b.Obj {
		return MemNoDep
	}
	if a.Obj == UnknownObj || b.Obj == UnknownObj {
		return MemBothDep
	}
	if ctx == nil {
		ctx = r.newAffineCtx(l)
	}
	ea := r.AddrExprOf(a, l, ctx)
	eb := r.AddrExprOf(b, l, ctx)
	if !ea.Known || !eb.Known {
		return MemBothDep
	}
	if ea.Stride == eb.Stride {
		d := eb.Offset - ea.Offset
		if ea.Stride == 0 {
			if d == 0 {
				return MemIntraDep // same invariant address every iteration
			}
			return MemNoDep
		}
		if d == 0 {
			return MemIntraDep
		}
		if d%ea.Stride == 0 {
			return MemCarriedDep
		}
		return MemNoDep
	}
	// Different strides: give the conservative answer unless one is
	// invariant and provably outside the other's footprint — skipped for
	// simplicity; the profiler refines this for statistical DOALL.
	return MemBothDep
}
