package compiler

import (
	"sort"

	"voltron/internal/core"
	"voltron/internal/ir"
	"voltron/internal/prof"
)

// Static cycle estimation for compiled regions: schedule slots weighted by
// profiled block execution counts, plus expected cache-miss stall cycles.
// Decoupled cores stall independently, so their miss time is per core and
// the region estimate is the maximum over cores (this is what makes the
// estimator see memory-level parallelism); coupled cores stall together, so
// the union of all cores' miss time is added to the (uniform) slot length.
// The selector (paper §4.2) ranks candidate strategies with this estimate.

// estMissPenalty is the expected stall per missing load (between the L2 and
// memory round trips).
const estMissPenalty = 80

// EstimateCycles predicts a compiled region's execution time from the
// profile. It is a ranking heuristic, not a simulator.
func EstimateCycles(cr *core.CompiledRegion, r *ir.Region, pr *prof.Profile) float64 {
	opByID := map[int]*ir.Op{}
	for _, o := range r.AllOps() {
		opByID[o.ID] = o
	}
	layout := layoutOrder(r)
	count := func(b *ir.Block) float64 {
		if pr == nil {
			return 1
		}
		if c, ok := pr.BlockCount[b]; ok {
			return float64(c)
		}
		return 1
	}
	var slots []float64
	var miss []float64
	for c := range cr.Code {
		code := cr.Code[c]
		if len(code) == 0 {
			slots = append(slots, 0)
			miss = append(miss, 0)
			continue
		}
		exts := blockExtents(layout, cr.Labels[c])
		var s float64
		if len(exts) > 0 {
			s += float64(exts[0].start) // prologue runs once
		}
		for i, e := range exts {
			end := len(code)
			if i+1 < len(exts) {
				end = exts[i+1].start
			}
			s += float64(end-e.start) * count(e.blk)
		}
		// Expected miss stalls of this core's loads.
		var m float64
		if pr != nil {
			for _, in := range code {
				if in.Op.IsLoad() && in.IROp >= 0 {
					if o := opByID[in.IROp]; o != nil {
						m += float64(pr.ExecCount[o]) * pr.MissRate[o] * estMissPenalty
					}
				}
			}
		}
		slots = append(slots, s)
		miss = append(miss, m)
	}
	if cr.Mode == core.Coupled {
		// Lock-step: one schedule length, every core's stalls union.
		var total float64
		maxSlots := 0.0
		for i := range slots {
			total += miss[i]
			if slots[i] > maxSlots {
				maxSlots = slots[i]
			}
		}
		return maxSlots + total
	}
	best := 0.0
	for i := range slots {
		if v := slots[i] + miss[i]; v > best {
			best = v
		}
	}
	return best
}

// blockExtent is the run of one core's code that a block starts: from
// start up to the next extent's start.
type blockExtent struct {
	start int
	blk   *ir.Block
}

// layoutOrder returns the region's blocks in the order every generator
// lays out code (reverse postorder), followed by any unreachable blocks.
func layoutOrder(r *ir.Region) []*ir.Block {
	order := r.ReversePostorder()
	inOrder := make([]bool, len(r.Blocks))
	for _, b := range order {
		inOrder[b.ID] = true
	}
	for _, b := range r.Blocks {
		if !inOrder[b.ID] {
			order = append(order, b)
		}
	}
	return order
}

// blockExtents returns the block extents of one core's label table in code
// order. A block that emits no instruction on a core shares its start
// index with the block laid out after it; ties keep layout order, so the
// last block at an index — the one whose code is there — is charged for it
// and the empty blocks before it get zero-length extents. Labels that name
// no block of the region (thread entries) are skipped.
func blockExtents(order []*ir.Block, labels map[int64]int) []blockExtent {
	var exts []blockExtent
	for _, b := range order {
		if idx, ok := labels[int64(b.ID)]; ok {
			exts = append(exts, blockExtent{idx, b})
		}
	}
	sort.SliceStable(exts, func(i, j int) bool { return exts[i].start < exts[j].start })
	return exts
}
