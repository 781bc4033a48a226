package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"voltron/internal/compiler"
	"voltron/internal/core"
	"voltron/internal/exp"
	"voltron/internal/workload"
)

// figureOrder is voltron-bench's default figure sequence (7 stands for the
// Figure 7-9 kernel group).
var figureOrder = []int{3, 7, 10, 11, 12, 13, 14}

// figureSpanName names a figure's per-layer metric.
func figureSpanName(f int) string {
	if f == 7 {
		return "exp.fig7-9"
	}
	return fmt.Sprintf("exp.fig%d", f)
}

// coldSuite makes a fresh suite over all 25 benchmarks with workers
// evaluation workers and builds and profiles every benchmark (the figures
// workload's set-up).
func coldSuite(workers int) (*exp.Suite, error) {
	s := exp.NewSuite()
	s.Workers = workers
	names := workload.Names()
	errs := make([]error, len(names))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, b := range names {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			_, errs[i] = s.Profile(b)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// regenerate writes every figure to w exactly as voltron-bench prints
// them, in its order. timed, when non-nil, wraps each figure.
func regenerate(s *exp.Suite, w io.Writer, timed func(fig int, f func() error) error) error {
	if timed == nil {
		timed = func(_ int, f func() error) error { return f() }
	}
	for _, f := range figureOrder {
		err := timed(f, func() error {
			if f == 7 {
				res, err := exp.Fig7to9()
				if err != nil {
					return err
				}
				fmt.Fprintln(w, "Figures 7-9: kernel speedups on 2 cores (paper vs measured)")
				for _, r := range res {
					fmt.Fprintf(w, "  %-22s paper %.2fx   measured %.2fx\n", r.Name, r.PaperSpeedup, r.Measured2Core)
				}
				fmt.Fprintln(w)
				return nil
			}
			t, err := s.Figure(f)
			if err != nil {
				return err
			}
			t.Print(w)
			fmt.Fprintln(w)
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// figureConfigs are the suite configurations whose simulated cycles the
// figures workload counts (all of them are simulated by a regeneration).
var figureConfigs = []struct {
	strat compiler.Strategy
	cores int
}{
	{compiler.Serial, 1}, {compiler.ForceILP, 4}, {compiler.ForceFTLP, 4}, {compiler.ForceLLP, 4},
	{compiler.Hybrid, 2}, {compiler.Hybrid, 4},
}

// suiteCycles sums the simulated cycles of figureConfigs over all
// benchmarks, and returns the hybrid 4-core results for the simulated
// per-layer counters.
func suiteCycles(s *exp.Suite) (int64, []*core.RunResult, error) {
	var total int64
	var hybrid []*core.RunResult
	for _, b := range workload.Names() {
		for _, c := range figureConfigs {
			r, err := s.Run(b, c.strat, c.cores)
			if err != nil {
				return 0, nil, err
			}
			total += r.TotalCycles
			if c.strat == compiler.Hybrid && c.cores == 4 {
				hybrid = append(hybrid, r)
			}
		}
	}
	return total, hybrid, nil
}

// figuresLimit is the latency limit a regeneration must meet to count
// toward goodput.
const figuresLimit = 10 * time.Second

// runFigures is the figures workload: repeated cold regenerations, each
// on a fresh suite whose programs and profiles are built first (set-up).
func runFigures(cfg runConfig) (*result, error) {
	// voltron-bench trades peak heap for fewer GC cycles the same way.
	debug.SetGCPercent(400)
	workers := runtime.GOMAXPROCS(0)
	res := &result{correct: true, m: newMetrics()}
	var setup, regen sample
	var cycles int64
	var last *exp.Suite
	begin := time.Now()
	// The traced run regenerates once here; its timings come from traceFigures.
	for len(regen) == 0 || (!cfg.trace && time.Since(begin) < cfg.window) {
		runtime.GC()
		t0 := time.Now()
		s, err := coldSuite(workers)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		var out strings.Builder
		err = regenerate(s, &out, nil)
		t2 := time.Now()
		res.attempted++
		if err != nil || out.String() != cfg.exp.figures {
			res.failed++
			res.correct = false
			res.logf("figures output differs from the recorded expectation (err=%v)", err)
		}
		setup = append(setup, t1.Sub(t0).Seconds())
		regen = append(regen, t2.Sub(t1).Seconds())
		if cycles == 0 {
			if cycles, _, err = suiteCycles(s); err != nil {
				return nil, err
			}
		}
		last = s
	}
	ms := res.m
	ms.set("setup_s", "s", setup.median(), len(setup), "fresh suite: build and profile 25 benchmarks")
	lat := make(sample, len(regen))
	var good int
	for i, v := range regen {
		lat[i] = v * 1000
		if v <= figuresLimit.Seconds() {
			good++
		}
	}
	ms.latency("job_p50_ms", "job_p99_ms", lat)
	ms.set("jobs_per_s", "1/s", 1/regen.median(), len(regen), "cold regenerations per second (1 / median)")
	ms.set("sim_cycles_per_s", "cycles/s", float64(cycles)/regen.median(), len(regen), "simulated cycles of the suite runs per regeneration second")
	ms.set("goodput_rps", "1/s", float64(good)/float64(len(regen))/regen.median(), len(regen),
		fmt.Sprintf("regenerations per second, counting only those within %v", figuresLimit))
	res.common()
	if cfg.trace {
		if err := traceFigures(cfg, res, last); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// traceFigures is the figures workload's traced run: one more cold
// regeneration timed figure by figure, then every benchmark replayed
// through the compiler and simulator layer calls.
func traceFigures(cfg runConfig, res *result, warm *exp.Suite) error {
	lr := newLayerRun()
	s, err := coldSuite(runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	var out strings.Builder
	err = regenerate(s, &out, func(f int, fn func() error) error {
		return lr.call(figureSpanName(f), -1, -1, fn)
	})
	if err != nil {
		return err
	}
	if out.String() != cfg.exp.figures {
		res.correct = false
		res.failed++
		res.logf("traced figures output differs from the recorded expectation")
	}
	_, hybrid, err := suiteCycles(warm)
	if err != nil {
		return err
	}
	for _, r := range hybrid {
		lr.countRun(r)
	}
	for j, b := range workload.Names() {
		if err := lr.replayBench(b, j); err != nil {
			return err
		}
	}
	lr.report(res.layers(), nil)
	return nil
}
