package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"voltron/internal/compiler"
	"voltron/internal/core"
	"voltron/internal/exp"
	"voltron/internal/ir"
	"voltron/internal/lang"
	"voltron/internal/prof"
	"voltron/internal/server"
	"voltron/internal/spec"
	"voltron/internal/stats"
	"voltron/internal/trace"
	"voltron/internal/workload"
)

// layerRun replays jobs through the public functions of each layer,
// recording a span around every call. With a nil recorder it replays the
// same calls untimed per layer (the baseline for the tracing overhead).
type layerRun struct {
	rec    *recorder
	allocs map[string]sample // per-call heap allocations, by metric name
	counts map[string]int64  // simulated counters summed over the runs
	runNS  int64             // host time inside core.run
	cycles int64             // simulated cycles of those runs
	probes []func() error    // probe calls queued by the current job
	// srcNormalize is spec.normalize's time on source jobs alone, where
	// it includes a full frontend run even on a cache hit.
	srcNormalize sample
}

func newLayerRun() *layerRun {
	return &layerRun{rec: newRecorder(), allocs: map[string]sample{}, counts: map[string]int64{}}
}

// begin opens a span (a no-op without a recorder).
func (l *layerRun) begin(name string, parent, job int) int {
	if l.rec == nil {
		return -1
	}
	return l.rec.begin(name, parent, job)
}

func (l *layerRun) end(id int) {
	if l.rec != nil {
		l.rec.end(id)
	}
}

// call records one span around f.
func (l *layerRun) call(name string, parent, job int, f func() error) error {
	id := l.begin(name, parent, job)
	err := f()
	l.end(id)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// callAlloc is call plus the heap allocations f made. The allocation
// counters are read outside the span, so their cost is not charged to it.
func (l *layerRun) callAlloc(name string, parent, job int, f func() error) error {
	if l.rec == nil {
		return l.call(name, parent, job, f)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := l.call(name, parent, job, f)
	runtime.ReadMemStats(&m1)
	l.allocs[name+"_allocs"] = append(l.allocs[name+"_allocs"], float64(m1.Mallocs-m0.Mallocs))
	if name == "compiler.compile" {
		l.allocs[name+"_bytes"] = append(l.allocs[name+"_bytes"], float64(m1.TotalAlloc-m0.TotalAlloc))
	}
	return err
}

// stallMetric names the per-layer metric of one stall kind.
func stallMetric(k stats.Kind) string {
	return "core.stall_cycles." + strings.ToLower(strings.ReplaceAll(k.String(), " ", "_"))
}

// stallKinds names every stall kind's per-layer metric.
func stallKinds() []string {
	var out []string
	for _, k := range stats.Kinds() {
		out = append(out, stallMetric(k))
	}
	return out
}

// countRun adds one simulation's counters to the simulated totals.
func (l *layerRun) countRun(r *core.RunResult) {
	l.counts["core.sim_cycles"] += r.TotalCycles
	for _, k := range stats.Kinds() {
		l.counts[stallMetric(k)] += r.Stall(k)
	}
	l.counts["core.tm_conflicts"] += r.TMConflicts
	l.counts["core.spawns"] += r.Spawns
	l.counts["mem.l2_hits"] += r.MemStats.L2Hits
	l.counts["mem.l2_misses"] += r.MemStats.L2Misses
	l.counts["mem.c2c_transfers"] += r.MemStats.C2CTransfers
	l.counts["mem.invalidations"] += r.MemStats.Invalidations
	l.counts["mem.writebacks"] += r.MemStats.Writebacks
}

// timedRun is core.run: the simulation, with its host time per cycle.
func (l *layerRun) timedRun(m *core.Machine, cp *core.CompiledProgram, parent, job int) (*core.RunResult, error) {
	var r *core.RunResult
	t0 := time.Now()
	err := l.callAlloc("core.run", parent, job, func() (err error) {
		r, err = m.Run(cp)
		return err
	})
	if err == nil {
		l.runNS += time.Since(t0).Nanoseconds()
		l.cycles += r.TotalCycles
	}
	return r, err
}

// probeCompile times the planning-only classifier and the static-selection
// compile of p next to the measured compile the job itself ran. Probe
// spans are roots of their own, outside the job's accounting.
func (l *layerRun) probeCompile(p *ir.Program, opts compiler.Options, job int) error {
	if err := l.call("compiler.classify", -1, job, func() error {
		_, err := compiler.ClassifyProgram(p, opts)
		return err
	}); err != nil {
		return err
	}
	opts.Selection = compiler.SelectStatic
	return l.call("compiler.compile_static", -1, job, func() error {
		_, err := compiler.Compile(p, opts)
		return err
	})
}

// replayBench is the figures replay of one benchmark: profile, classify,
// compile (measured and static), then a fresh machine, a run, and a reset.
func (l *layerRun) replayBench(bench string, job int) error {
	p, err := workload.Build(bench)
	if err != nil {
		return err
	}
	root := l.begin("job", -1, job)
	defer l.end(root)
	var pr *prof.Profile
	if err := l.callAlloc("prof.collect", root, job, func() (err error) {
		pr, err = prof.Collect(p)
		return err
	}); err != nil {
		return err
	}
	opts := compiler.Options{Cores: 4, Strategy: compiler.Hybrid, Profile: pr, Workers: runtime.GOMAXPROCS(0)}
	var cp *core.CompiledProgram
	if err := l.callAlloc("compiler.compile", root, job, func() (err error) {
		cp, err = compiler.Compile(p, opts)
		return err
	}); err != nil {
		return err
	}
	if err := l.probeCompile(p, opts, job); err != nil {
		return err
	}
	cfg := core.DefaultConfig(4)
	var m *core.Machine
	_ = l.call("core.new", root, job, func() error { m = core.New(cfg); return nil })
	if _, err := l.timedRun(m, cp, root, job); err != nil {
		return err
	}
	return l.call("core.reset", root, job, func() error { m.Reset(cfg); return nil })
}

// replayState mirrors the server's caches during a replay, so each job
// takes the path Server.simulate would take: result hit, compile hit or
// full compile, and a pooled or a fresh machine.
type replayState struct {
	suite     *exp.Suite
	results   map[string]bool
	artifacts map[string]*core.CompiledProgram
	// idle mirrors the server's machine pool: perKey idle machines per
	// machine shape and maxIdle overall, never evicted.
	idle    map[string][]*core.Machine
	total   int
	perKey  int
	maxIdle int
	known   func(string) bool
}

func newReplayState(workers int) *replayState {
	names := map[string]bool{}
	for _, n := range workload.Names() {
		names[n] = true
	}
	return &replayState{
		suite:     exp.NewSuite(),
		results:   map[string]bool{},
		artifacts: map[string]*core.CompiledProgram{},
		idle:      map[string][]*core.Machine{},
		perKey:    workers,
		maxIdle:   4 * workers,
		known:     func(b string) bool { return names[b] },
	}
}

func (st *replayState) take(key string) *core.Machine {
	q := st.idle[key]
	if len(q) == 0 {
		return nil
	}
	st.idle[key] = q[:len(q)-1]
	st.total--
	return q[len(q)-1]
}

func (st *replayState) put(key string, m *core.Machine) {
	if len(st.idle[key]) >= st.perKey || st.total >= st.maxIdle {
		return
	}
	st.idle[key] = append(st.idle[key], m)
	st.total++
}

// warm compiles body's program into the artifact map without recording,
// as a serve workload's set-up warms the server's compile cache.
func (st *replayState) warm(body []byte) error {
	var l layerRun
	_, err := l.replayJob(st, body, -1, "")
	return err
}

// replayJob replays one job, then runs the probes its compile queued
// outside the job's span.
func (l *layerRun) replayJob(st *replayState, body []byte, job int, want string) (bool, error) {
	ok, err := l.replayJobSpans(st, body, job, want)
	probes := l.probes
	l.probes = nil
	for _, p := range probes {
		if err == nil {
			err = p()
		}
	}
	return ok, err
}

// replayJobSpans replays one job body in Server.simulate's order: decode,
// normalize, keys, then (on a result miss) the program from the suite or
// spec.Build, profile and compile on a compile miss, a pooled Reset or a
// fresh machine, the run and the response rendering. It returns whether
// the outputs match want ("" skips the check).
func (l *layerRun) replayJobSpans(st *replayState, body []byte, job int, want string) (bool, error) {
	root := l.begin("job", -1, job)
	defer l.end(root)
	var req *spec.JobRequest
	if err := l.call("spec.decode", root, job, func() (err error) {
		req, _, err = spec.DecodeJob(bytes.NewReader(body))
		return err
	}); err != nil {
		return false, err
	}
	t0 := time.Now()
	if err := l.call("spec.normalize", root, job, func() error { return req.Normalize(st.known) }); err != nil {
		return false, err
	}
	if req.Program.Kind == spec.KindSource && l.rec != nil {
		l.srcNormalize = append(l.srcNormalize, float64(time.Since(t0)))
	}
	var key, ckey, mkey string
	_ = l.call("spec.key", root, job, func() error {
		key, ckey, mkey = req.Key(), req.CompileKey(), req.MachineKey()
		_ = spec.RingKeyOf(key)
		return nil
	})
	if st.results[key] {
		return true, nil // a result-cache hit: nothing is recomputed
	}
	st.results[key] = true
	var (
		p   *ir.Program
		pr  *prof.Profile
		err error
	)
	if req.Program.Kind == spec.KindBench {
		err = l.call("exp.suite", root, job, func() (err error) {
			if p, err = st.suite.Program(req.Program.Bench); err != nil {
				return err
			}
			pr, err = st.suite.Profile(req.Program.Bench)
			return err
		})
	} else {
		err = l.call("spec.build", root, job, func() (err error) {
			p, err = req.Program.Build()
			return err
		})
	}
	if err != nil {
		return false, err
	}
	cp, hit := st.artifacts[ckey]
	if !hit {
		if pr == nil && req.Strategy != "serial" {
			if err := l.callAlloc("prof.collect", root, job, func() (err error) {
				pr, err = prof.Collect(p)
				return err
			}); err != nil {
				return false, err
			}
		}
		opts := req.CompilerOpts()
		opts.Profile = pr
		if err := l.callAlloc("compiler.compile", root, job, func() (err error) {
			cp, err = compiler.Compile(p, opts)
			return err
		}); err != nil {
			return false, err
		}
		st.artifacts[ckey] = cp
		if l.rec != nil {
			l.probes = append(l.probes, func() error {
				if err := l.probeSource(req, job); err != nil {
					return err
				}
				if opts.Cores > 1 && req.Strategy == "hybrid" {
					return l.probeCompile(p, opts, job)
				}
				return nil
			})
		}
	}
	var tr *trace.Tracer
	if req.Trace {
		tr = trace.New()
	}
	cfg := req.MachineConfig(tr)
	m := st.take(mkey)
	if m != nil {
		_ = l.call("core.reset", root, job, func() error { m.Reset(cfg); return nil })
	} else {
		_ = l.call("core.new", root, job, func() error { m = core.New(cfg); return nil })
	}
	res, err := l.timedRun(m, cp, root, job)
	if err != nil {
		return false, err
	}
	st.put(mkey, m)
	if l.rec != nil {
		l.countRun(res)
	}
	var out jobOutput
	_ = l.call("server.render", root, job, func() error {
		out = render(req, key, res, tr)
		return nil
	})
	return want == "" || out.digest() == want, nil
}

// probeSource times the language frontend and lowering of a source job on
// their own (spec.normalize and spec.build run them inside).
func (l *layerRun) probeSource(req *spec.JobRequest, job int) error {
	if req.Program.Kind != spec.KindSource {
		return nil
	}
	var lp *lang.Program
	if err := l.call("lang.frontend", -1, job, func() (err error) {
		lp, err = lang.Frontend(req.Program.Source, req.Program.Inputs)
		return err
	}); err != nil {
		return err
	}
	return l.call("lang.lower", -1, job, func() error {
		_, err := lp.Lower(req.Program.Name)
		return err
	})
}

// render builds and encodes the response the server would send, and
// returns its pinned outputs.
func render(req *spec.JobRequest, key string, res *core.RunResult, tr *trace.Tracer) jobOutput {
	resp := server.JobResponse{
		SchemaVersion: spec.SchemaVersion,
		Key:           key,
		Strategy:      req.Strategy,
		Cores:         req.Cores,
		TotalCycles:   res.TotalCycles,
		RegionCycles:  res.RegionCycles,
		ModeCoupled:   res.ModeFraction(stats.ModeCoupled),
		ModeDecoupl:   res.ModeFraction(stats.ModeDecoupled),
		Spawns:        res.Spawns,
		TMConflicts:   res.TMConflicts,
		Stalls:        map[string]int64{},
		Mem: server.MemStats{
			L2Hits:        res.MemStats.L2Hits,
			L2Misses:      res.MemStats.L2Misses,
			C2CTransfers:  res.MemStats.C2CTransfers,
			Invalidations: res.MemStats.Invalidations,
			Writebacks:    res.MemStats.Writebacks,
		},
	}
	for _, k := range stats.Kinds() {
		if n := res.Stall(k); n > 0 {
			resp.Stalls[k.String()] = n
		}
	}
	if tr != nil {
		var buf bytes.Buffer
		_ = tr.WriteChrome(&buf) // writes to a buffer cannot fail
		resp.StallReport = tr.Report()
	}
	_, _ = json.Marshal(&resp) // the response struct always marshals
	return jobOutput{TotalCycles: resp.TotalCycles, Spawns: resp.Spawns, TMConflicts: resp.TMConflicts, Stalls: resp.Stalls, Mem: resp.Mem}
}

// spanMetric names a span's per-layer metric and gives its unit and the
// scale from nanoseconds: figures in seconds, everything else in µs.
func spanMetric(name string) (string, string, float64) {
	if strings.HasPrefix(name, "exp.fig") {
		return name + "_s", "s", 1e-9
	}
	return name + "_us", "us", 1e-3
}

// report adds the per-layer metrics: the median self time of every layer
// span, the allocation medians, the simulated totals, and — given each
// replayed job's measured latency — server.overhead_us, the median of
// latency minus the self times of the job's layer spans.
func (l *layerRun) report(ms *metrics, latency map[int]time.Duration) {
	spans := l.rec.spans
	self := selfTimes(spans)
	byName := map[string]sample{}
	var order []string
	layerSum := map[int]time.Duration{}
	for i, s := range spans {
		if s.name == "job" {
			continue
		}
		if _, ok := byName[s.name]; !ok {
			order = append(order, s.name)
		}
		byName[s.name] = append(byName[s.name], float64(self[i]))
		if s.parent >= 0 {
			layerSum[s.job] += self[i]
		}
	}
	for _, name := range order {
		metricName, unit, scale := spanMetric(name)
		v := byName[name]
		ms.set(metricName, unit, v.median()*scale, len(v), "median self time")
	}
	for name, v := range l.allocs {
		unit := "count"
		if strings.HasSuffix(name, "_bytes") {
			unit = "B"
		}
		ms.set(name, unit, v.median(), len(v), "median per call")
	}
	for name, v := range l.counts {
		ms.set(name, "count", float64(v), 0, "simulated, summed over the replayed runs")
	}
	if len(l.srcNormalize) > 0 {
		ms.set("spec.normalize_source_us", "us", l.srcNormalize.median()/1e3, len(l.srcNormalize), "median on source jobs")
	}
	if l.cycles > 0 {
		ms.set("core.ns_per_cycle", "ns/cycle", float64(l.runNS)/float64(l.cycles), 0, "")
	}
	if len(latency) > 0 {
		var over sample
		for job, lat := range latency {
			over = append(over, float64(lat-layerSum[job])/1e3)
		}
		ms.set("server.overhead_us", "us", over.median(), len(over), "job latency minus its layer self times")
	}
}
