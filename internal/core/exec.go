// Package core implements the Voltron machine: single-issue VLIW cores on a
// mesh, executing compiled per-core instruction streams in coupled
// (lock-step, direct-mode network, stall bus) or decoupled (fine-grain
// threads, queue-mode network, SPAWN/SLEEP) mode, over the coherent memory
// hierarchy of package mem, with full cycle accounting (package stats).
package core

import (
	"fmt"
	"sync"

	"voltron/internal/ir"
	"voltron/internal/isa"
	"voltron/internal/mem"
	"voltron/internal/stats"
)

// Mode is a region's execution mode.
type Mode int

// Execution modes. DOALL is decoupled execution with transactional chunk
// framing and a serial fallback on violation.
const (
	Coupled Mode = iota
	Decoupled
	DOALL
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Coupled:
		return "coupled"
	case Decoupled:
		return "decoupled"
	case DOALL:
		return "doall"
	}
	return "mode?"
}

// StatsMode maps the execution mode to the two-way occupancy accounting of
// the paper's Figure 14 (DOALL runs decoupled).
func (m Mode) StatsMode() stats.Mode {
	if m == Coupled {
		return stats.ModeCoupled
	}
	return stats.ModeDecoupled
}

// CompiledRegion is the per-core machine code for one region.
type CompiledRegion struct {
	Name string
	Mode Mode
	// Code is each core's instruction stream.
	Code [][]isa.Inst
	// Labels maps logical block ids to instruction indices, per core. PBR
	// and SPAWN name logical blocks; cores resolve them in their own
	// stream ("same logical target, different physical block").
	Labels []map[int64]int
	// Entry is the start index per core (conventionally 0).
	Entry []int
	// StartAwake marks cores that begin executing at Entry. In coupled
	// mode all cores must start awake; in decoupled mode typically only
	// the master (core 0) does, and it SPAWNs the others.
	StartAwake []bool
	// TxCores is the number of cores that execute a transaction in a DOALL
	// region (the commit barrier width). Zero for non-DOALL regions.
	TxCores int
	// Fallback is the serial single-core code re-executed from rolled-back
	// memory state when a DOALL region detects a dependence violation.
	Fallback []isa.Inst
	// FallbackLabels resolves logical blocks in the fallback stream.
	FallbackLabels map[int64]int

	// Dense branch-target tables derived from Labels/FallbackLabels the
	// first time the region runs (branches resolve targets by indexing
	// instead of a map lookup on the simulator's hot path). Guarded by a
	// Once so concurrent Machines may share one region.
	resolveOnce sync.Once
	btabs       [][]int32
	fbtab       []int32
}

// maxDenseLabel bounds the dense table size; a region with out-of-range
// block ids keeps the map lookups (correct, just slower).
const maxDenseLabel = 1 << 16

// denseLabels flattens one label map into an id-indexed table (-1 = no such
// block). It returns nil when the ids do not fit a dense table.
func denseLabels(m map[int64]int) []int32 {
	maxID := int64(-1)
	for id := range m {
		if id < 0 || id >= maxDenseLabel {
			return nil
		}
		if id > maxID {
			maxID = id
		}
	}
	t := make([]int32, maxID+1)
	for i := range t {
		t[i] = -1
	}
	for id, idx := range m {
		t[id] = int32(idx)
	}
	return t
}

// resolve builds the dense branch tables once per region.
func (cr *CompiledRegion) resolve() {
	cr.resolveOnce.Do(func() {
		cr.btabs = make([][]int32, len(cr.Labels))
		for c, m := range cr.Labels {
			cr.btabs[c] = denseLabels(m)
		}
		cr.fbtab = denseLabels(cr.FallbackLabels)
	})
}

// lookupLabel resolves a logical block id in core c's stream.
func (cr *CompiledRegion) lookupLabel(c int, id int64) (int, bool) {
	if t := cr.btabs[c]; t != nil {
		if id < 0 || id >= int64(len(t)) || t[id] < 0 {
			return 0, false
		}
		return int(t[id]), true
	}
	idx, ok := cr.Labels[c][id]
	return idx, ok
}

// lookupFallbackLabel resolves a logical block id in the fallback stream.
func (cr *CompiledRegion) lookupFallbackLabel(id int64) (int, bool) {
	if t := cr.fbtab; t != nil {
		if id < 0 || id >= int64(len(t)) || t[id] < 0 {
			return 0, false
		}
		return int(t[id]), true
	}
	idx, ok := cr.FallbackLabels[id]
	return idx, ok
}

// Validate checks structural consistency of the compiled region against a
// machine width.
func (cr *CompiledRegion) Validate(cores int) error {
	if len(cr.Code) != cores || len(cr.Labels) != cores ||
		len(cr.Entry) != cores || len(cr.StartAwake) != cores {
		return fmt.Errorf("region %q: per-core tables sized %d/%d/%d/%d, want %d",
			cr.Name, len(cr.Code), len(cr.Labels), len(cr.Entry), len(cr.StartAwake), cores)
	}
	for c := 0; c < cores; c++ {
		if len(cr.Code[c]) == 0 && cr.StartAwake[c] {
			return fmt.Errorf("region %q: core %d awake with empty code", cr.Name, c)
		}
		if cr.StartAwake[c] && (cr.Entry[c] < 0 || cr.Entry[c] >= len(cr.Code[c])) {
			return fmt.Errorf("region %q: core %d entry %d out of range", cr.Name, c, cr.Entry[c])
		}
		for i, in := range cr.Code[c] {
			if in.Op == isa.PBR || in.Op == isa.SPAWN {
				target := c
				if in.Op == isa.SPAWN {
					target = in.Core
				}
				if target < 0 || target >= cores {
					return fmt.Errorf("region %q core %d inst %d: bad target core %d", cr.Name, c, i, target)
				}
				if _, ok := cr.Labels[target][in.Imm]; !ok {
					return fmt.Errorf("region %q core %d inst %d (%v): unresolved label B%d on core %d",
						cr.Name, c, i, in, in.Imm, target)
				}
			}
		}
	}
	if cr.Mode == Coupled {
		for c := 0; c < cores; c++ {
			if !cr.StartAwake[c] {
				return fmt.Errorf("region %q: coupled mode requires all cores awake", cr.Name)
			}
		}
	}
	if cr.Mode == DOALL && cr.TxCores > 0 && len(cr.Fallback) == 0 {
		return fmt.Errorf("region %q: DOALL region without serial fallback", cr.Name)
	}
	return nil
}

// CompiledProgram is a fully lowered workload: one compiled region per IR
// region, plus the source program for memory-image construction.
type CompiledProgram struct {
	Name    string
	Cores   int
	Regions []*CompiledRegion
	// Src provides the data layout and initial memory image.
	Src *ir.Program
	// Selection records how per-region strategy selection decided each
	// lowering. Execution never reads it; the serving layer exposes it
	// (selection metrics, the X-Voltron-Select header) and the
	// selection-agreement experiments consume it.
	Selection SelectionSummary

	// image is the initial memory image, built from Src once per program
	// (guarded like CompiledRegion.resolve, so concurrent Machines may share
	// one artifact) and copied for every run.
	imageOnce sync.Once
	image     *mem.Flat
}

// SelectionSummary describes one compile's per-region selection outcomes.
type SelectionSummary struct {
	// Mode is "measured", "static" or "escalated" ("" when compilation ran
	// no per-region selection, e.g. serial or single-core compiles).
	Mode string
	// Static counts regions the classifier decided without simulation,
	// Escalated those it sent to measured selection on low confidence,
	// Measured those decided by simulation under measured mode.
	Static, Escalated, Measured int
	// SimCycles is the cycles selection simulated to decide the program:
	// the serial baseline run, the committed regions stepped to reach each
	// measured region's boundary, and every candidate's region. It is a
	// deterministic cost count, 0 when nothing was simulated.
	SimCycles int64
	// Regions parallels CompiledProgram.Regions.
	Regions []RegionSelection
}

// RegionSelection is one region's selection outcome.
type RegionSelection struct {
	// Tier is the classifier tier ("small", "doall", "easy", "hard",
	// "measured", "rechecked" — compiler.Tier names).
	Tier string
	// Choice names the selected technique (compiler.Choice names).
	Choice string
	// Confidence is the classifier's relative-margin score in [0, 1]
	// (1 for outcomes that are safe by construction).
	Confidence float64
}

// Validate checks all regions.
func (cp *CompiledProgram) Validate() error {
	for _, r := range cp.Regions {
		if err := r.Validate(cp.Cores); err != nil {
			return err
		}
	}
	return nil
}

// NewMemory returns a private copy of the program's initial memory image.
func (cp *CompiledProgram) NewMemory() *mem.Flat {
	cp.imageOnce.Do(func() { cp.image = mem.NewFlatFor(cp.Src) })
	return cp.image.Clone()
}
