package compiler

import (
	"context"
	"fmt"
	"sync"

	"voltron/internal/core"
	"voltron/internal/ir"
)

// Measured strategy selection (paper §4.2): each region's candidate
// lowerings are simulated in the context of the program compiled so far and
// the candidate with the best region time wins (serial always competes, so
// a technique is never applied where it hurts). For Hybrid the candidates
// are every technique with statistical DOALL taken outright as the most
// efficient parallelism; for the Force* strategies the single technique
// competes against serial only — the per-technique bars of Figures 10/11.
//
// This is the compiler's hot path, so each cycle is simulated as few times
// as the comparison allows, and the outcome is identical for every worker
// count (Workers=1 is the sequential pipeline):
//
//   - the serial baseline is simulated ONCE per selection pass — one
//     full-program run of the all-serial lowering yields every region's
//     serial time at once;
//   - candidate lowerings are generated concurrently per region (pure
//     reads of the IR; every generator clones before mutating);
//   - a candidate simulates only its own region: a prefix machine runs the
//     committed lowerings up to the region's boundary, each candidate's
//     machine copies that boundary state (core.Machine.CopyFrom) and steps
//     the one region, concurrently on up to maxCandidatesPerRegion
//     machines, with a barrier per region so later regions are always
//     measured against the committed winners of earlier ones;
//   - the winning candidate's machine already holds the state after the
//     region, so it becomes the prefix; the prefix re-simulates a region
//     only where serial won or no candidate competed (small, DOALL or
//     candidate-less regions);
//   - the winner is chosen by fixed candidate order, never completion
//     order, so the selected program does not depend on scheduling.
//
// A candidate is timed up to the end of its region, so a failure in a later
// region no longer disqualifies it, where a full-program run would have.
// The regions after the one being measured are serial baselines, or picks
// whose code does not depend on the candidate, so this only matters for a
// program that would fail regardless; the full-program differential in the
// tests pins the two to the same region times.

// maxCandidatesPerRegion bounds the simulations one region's barrier can
// overlap (coupled ILP and fine-grain TLP; DOALL is taken without a race).
const maxCandidatesPerRegion = 2

// regionCandidate is one measurable lowering with the metadata selection
// needs: which technique it embodies and its static cycle estimate (the
// classifier's ranking signal).
type regionCandidate struct {
	cr     *core.CompiledRegion
	choice Choice
	est    float64
}

// regionPlan is the precomputed selection work for one region.
type regionPlan struct {
	small bool
	// serial is the always-competing baseline lowering; serialEst is its
	// static estimate.
	serial    *core.CompiledRegion
	serialEst float64
	// doall is the statistical-DOALL lowering, taken outright (Hybrid).
	doall *core.CompiledRegion
	// err is a generation failure that must abort compilation, reported in
	// region order.
	err error
	// candidates in fixed order: coupled ILP first, then fine-grain TLP.
	candidates []regionCandidate
}

// lowering returns the plan's compiled region for a choice (serial when the
// choice has no candidate, which cannot happen for classifier picks).
func (pl *regionPlan) lowering(c Choice) *core.CompiledRegion {
	if c == ChoseLLP && pl.doall != nil {
		return pl.doall
	}
	for _, cand := range pl.candidates {
		if cand.choice == c {
			return cand.cr
		}
	}
	return pl.serial
}

func compileMeasured(p *ir.Program, opts Options) (*core.CompiledProgram, error) {
	plans := planRegions(p, opts)
	cp := &core.CompiledProgram{
		Name: p.Name, Cores: opts.Cores, Src: p,
		Regions: make([]*core.CompiledRegion, len(p.Regions)),
	}
	cp.Selection = core.SelectionSummary{
		Mode:    SelectMeasured.String(),
		Regions: make([]core.RegionSelection, len(p.Regions)),
	}
	for i, pl := range plans {
		if pl.err != nil {
			return nil, pl.err
		}
		cp.Regions[i] = pl.serial
	}
	pool, err := newEvalPool(opts, cp, cp)
	if err != nil {
		return nil, err
	}
	for i := range p.Regions {
		pl := plans[i]
		sel := &cp.Selection.Regions[i]
		*sel = core.RegionSelection{Tier: TierMeasured.String(), Choice: ChoseSingle.String(), Confidence: 1}
		if pl.small {
			sel.Tier = TierSmall.String()
			continue // not worth parallelizing; stays serial
		}
		if pl.doall != nil {
			cp.Regions[i] = pl.doall
			*sel = core.RegionSelection{Tier: TierDOALL.String(), Choice: ChoseLLP.String(), Confidence: 1}
			continue
		}
		if len(pl.candidates) == 0 {
			continue
		}
		sel.Choice = measureRegion(pool, i, pl).String()
		cp.Selection.Measured++
	}
	if err := cp.Validate(); err != nil {
		return nil, err
	}
	return cp, nil
}

// measureRegion simulates region i's candidates from the committed
// program's boundary state, installs the winner into the pool's program,
// and returns its choice. A candidate must strictly beat the best so far in
// fixed candidate order, so ties keep the earlier entry (serial first, at
// its time in the all-serial baseline) — exactly the sequential pipeline's
// tie-breaking.
func measureRegion(pool *evalPool, i int, pl *regionPlan) Choice {
	crs := make([]*core.CompiledRegion, len(pl.candidates))
	for k := range pl.candidates {
		crs[k] = pl.candidates[k].cr
	}
	cycles := pool.measure(i, crs)
	best, bestCycles, bestChoice, winner := pl.serial, pool.serial[i], ChoseSingle, -1
	for k, cand := range pl.candidates {
		if cycles[k] >= 0 && cycles[k] < bestCycles {
			best, bestCycles, bestChoice, winner = cand.cr, cycles[k], cand.choice, k
		}
	}
	pool.cp.Regions[i] = best
	if winner >= 0 {
		pool.adopt(winner)
	}
	return bestChoice
}

// planRegions generates every region's candidate lowerings concurrently
// (bounded by opts.Workers). Generation only reads the shared IR, so the
// fan-out is race-free; results are slotted by region index so the outcome
// is independent of scheduling.
func planRegions(p *ir.Program, opts Options) []*regionPlan {
	plans := make([]*regionPlan, len(p.Regions))
	sem := make(chan struct{}, opts.Workers)
	var wg sync.WaitGroup
	for i, r := range p.Regions {
		wg.Add(1)
		go func(i int, r *ir.Region) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			plans[i] = planRegion(r, opts)
		}(i, r)
	}
	wg.Wait()
	return plans
}

// planRegion computes one region's selection plan: the serial baseline
// lowering, the outright DOALL take (Hybrid), and the measurable candidates
// with their static estimates.
func planRegion(r *ir.Region, opts Options) *regionPlan {
	pl := &regionPlan{}
	serial, err := genSerial(r, opts.Cores)
	if err != nil {
		pl.err = fmt.Errorf("region %q: %w", r.Name, err)
		return pl
	}
	pl.serial = serial
	pl.serialEst = EstimateCycles(serial, r, opts.Profile)
	pl.small = opts.Profile != nil && opts.Profile.RegionOps != nil &&
		r.ID < len(opts.Profile.RegionOps) && opts.Profile.RegionOps[r.ID] < minRegionOps
	if pl.small {
		return pl
	}
	if opts.Strategy == Hybrid {
		if cr, ok, err := tryDOALL(r, opts); err != nil {
			pl.err = err
			return pl
		} else if ok {
			pl.doall = cr
			return pl
		}
	}
	if opts.Strategy == Hybrid || opts.Strategy == ForceILP {
		if coupled, target, upr, err := genCoupledCandidate(r, opts); err == nil {
			pl.candidates = append(pl.candidates,
				regionCandidate{cr: coupled, choice: ChoseILP, est: EstimateCycles(coupled, target, upr)})
		}
	}
	if opts.Strategy == Hybrid || opts.Strategy == ForceFTLP {
		if ftlp, err := genFTLP(r, opts); err == nil {
			est := EstimateCycles(ftlp, r, opts.Profile) + EstimateQueueComm(ftlp, r, opts.Profile)
			pl.candidates = append(pl.candidates,
				regionCandidate{cr: ftlp, choice: ChoseFTLP, est: est})
		}
	}
	return pl
}

// evalPool measures candidate lowerings one region at a time. The prefix
// machine runs the committed program (cp's lowerings) up to the boundary
// of the region being measured; each candidate's slot machine copies that
// boundary state and simulates only its own region. Every machine is a
// NoStats throwaway: selection reads region times alone.
type evalPool struct {
	cp      *core.CompiledProgram
	workers int
	// serial is each region's time in the all-serial baseline run.
	serial []int64
	prefix *core.Machine
	// prefixErr is the failure of a committed region: every later
	// candidate fails with it, as its full-program run would have.
	prefixErr error
	// slots[k] simulates candidate k; cycles[k] and simmed[k] hold its
	// region time (-1: failed) and its simulated cycles (failed or not).
	slots  [maxCandidatesPerRegion]*core.Machine
	cycles [maxCandidatesPerRegion]int64
	simmed [maxCandidatesPerRegion]int64
}

// newEvalPool simulates base, the all-serial lowering, once — one
// full-program run yields every region's serial time — and then starts the
// prefix machine on cp at cycle 0. cp is the program under selection:
// measureRegion installs winners into it, and the prefix only ever steps
// its regions below the one being measured. A failed baseline is a hard
// error: without serial region times no candidate could ever be compared
// against serial, and letting the first non-failing candidate win would
// ship a lowering that was never measured to help.
func newEvalPool(opts Options, cp, base *core.CompiledProgram) (*evalPool, error) {
	cfg := core.DefaultConfig(cp.Cores)
	cfg.NoStats = true
	p := &evalPool{cp: cp, workers: min(max(opts.Workers, 1), maxCandidatesPerRegion), prefix: core.New(cfg)}
	for k := range p.slots {
		p.slots[k] = core.New(cfg)
	}
	res, err := p.prefix.Run(base)
	if err != nil {
		return nil, fmt.Errorf("%s: serial baseline: %w", base.Name, err)
	}
	p.serial = res.RegionCycles
	cp.Selection.SimCycles += res.TotalCycles
	if err := p.prefix.Begin(context.Background(), cp); err != nil {
		return nil, err
	}
	return p, nil
}

// advance steps the prefix machine through the committed regions below i.
func (p *evalPool) advance(i int) error {
	for r := p.prefix.NextRegion(); r < i && p.prefixErr == nil; r++ {
		cr := p.cp.Regions[r]
		if err := cr.Validate(p.cp.Cores); err != nil {
			p.prefixErr = err
			break
		}
		start := p.prefix.Now()
		_, err := p.prefix.StepRegion(cr)
		p.cp.Selection.SimCycles += p.prefix.Now() - start
		p.prefixErr = err
	}
	return p.prefixErr
}

// measure simulates region i's candidates from the committed program's
// boundary state and returns their region times in candidate order (-1
// marks a failed simulation). It returns only after every candidate
// finished — the per-region barrier.
func (p *evalPool) measure(i int, cands []*core.CompiledRegion) []int64 {
	cycles := p.cycles[:len(cands)]
	if p.advance(i) != nil {
		for k := range cycles {
			cycles[k] = -1 // a misbehaving candidate never wins
		}
		return cycles
	}
	var wg sync.WaitGroup
	for k := range cands {
		if k > 0 && k < p.workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.run(k, cands[k])
			}()
			continue
		}
		p.run(k, cands[k])
	}
	wg.Wait()
	for k := range cands {
		p.cp.Selection.SimCycles += p.simmed[k]
	}
	return cycles
}

// run simulates candidate k's region on its slot machine from the prefix's
// boundary state. It only reads the prefix, so candidates run concurrently.
func (p *evalPool) run(k int, cand *core.CompiledRegion) {
	m := p.slots[k]
	p.cycles[k], p.simmed[k] = -1, 0
	if cand.Validate(p.cp.Cores) != nil || m.CopyFrom(p.prefix) != nil {
		return
	}
	start := m.Now()
	c, err := m.StepRegion(cand)
	p.simmed[k] = m.Now() - start
	if err == nil {
		p.cycles[k] = c
	}
}

// adopt makes candidate k's machine the prefix: after the measure that
// chose k, it holds exactly the state the committed program reaches at the
// end of the region, so the prefix need not simulate the region again.
func (p *evalPool) adopt(k int) {
	p.prefix, p.slots[k] = p.slots[k], p.prefix
}
