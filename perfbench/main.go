// Command perfbench is the repository's benchmark: it runs one workload
// for a fixed time, checks every output against the recorded
// expectations, and prints one JSON result as its last line. See
// README.md for the workloads and their metrics.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload serve-sweep --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --record perfbench/expect   # re-record expectations
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// runConfig is one run's parameters.
type runConfig struct {
	seed   int64
	window time.Duration
	trace  bool
	exp    *expectations
}

// result is one run's outcome.
type result struct {
	correct   bool
	attempted int
	failed    int
	m         *metrics // end-to-end metrics (untraced run)
	layer     *metrics // per-layer metrics (traced run)
	log       []string
}

func (r *result) layers() *metrics {
	if r.layer == nil {
		r.layer = newMetrics()
	}
	return r.layer
}

func (r *result) logf(format string, args ...any) {
	if len(r.log) < 20 {
		r.log = append(r.log, fmt.Sprintf(format, args...))
	}
}

// common adds the metrics every workload reports the same way.
func (r *result) common() {
	r.m.set("peak_rss_mb", "MB", peakRSSMB(), 1, "process high-water mark")
	r.m.set("ok_frac", "ratio", frac(int64(r.attempted-r.failed), int64(r.attempted)), r.attempted,
		fmt.Sprintf("%d failed of %d attempted", r.failed, r.attempted))
}

var workloads = map[string]func(runConfig) (*result, error){
	"figures":     runFigures,
	"source-cold": runSourceCold,
	"serve-sweep": runServeSweep,
	"fleet-zipf":  runFleetZipf,
}

// heldOutSeed is kept out of tuning; later performance claims are checked
// on it as well as on the seeds they were measured with.
const heldOutSeed = 7919

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := flags.String("workload", "", "figures | source-cold | serve-sweep | fleet-zipf")
	seed := flags.Int64("seed", 1, "input seed")
	seconds := flags.Int("seconds", 10, "measured window in seconds")
	traced := flags.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	rec := flags.String("record", "", "re-record the expectations into this directory and exit")
	if err := flags.Parse(args); err != nil {
		return err
	}
	if *rec != "" {
		return record(*rec)
	}
	wl, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	exp, err := loadExpectations()
	if err != nil {
		return err
	}
	cfg := runConfig{seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *traced == 1, exp: exp}
	speed := warmCPUs(cpuWarmup)
	steal0, total0 := cpuTimes()
	res, err := wl(cfg)
	if err != nil {
		return err
	}
	return emit(stdout, *name, cfg, speed, stealPct(steal0, total0), res)
}

// emit prints the human-readable record (host block, every metric with its
// unit and sample count) and then the one-line JSON result.
func emit(w io.Writer, name string, cfg runConfig, speed float64, steal string, res *result) error {
	fmt.Fprintf(w, "host: cpus=%d gomaxprocs=%d go=%s commit=%s spin_mips=%.0f steal_pct=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), speed, steal)
	fmt.Fprintf(w, "run: workload=%s seed=%d seconds=%.0f trace=%v held_out_seed=%d\n",
		name, cfg.seed, cfg.window.Seconds(), cfg.trace, heldOutSeed)
	for _, l := range res.log {
		fmt.Fprintln(w, "check:", l)
	}
	ms := res.m
	want := endToEnd
	if cfg.trace {
		ms, want = res.layers(), perLayer()
	}
	out := map[string]metric{}
	for _, n := range want {
		m, ok := ms.m[n.name]
		if !ok {
			m, ok = res.m.m[n.name] // tailLatency, measured with the end-to-end metrics
		}
		if !ok {
			m = metric{Unit: n.unit, note: "layer not run by this workload"}
		}
		out[n.name] = m
		fmt.Fprintf(w, "metric: %-34s %14.6g %-9s n=%-6d %s\n", n.name, m.Value, m.Unit, m.n, m.note)
	}
	if !cfg.trace {
		m := res.m.m[tailLatency.name]
		fmt.Fprintf(w, "tail:   %-34s %14.6g %-9s n=%-6d %s (no bound)\n", tailLatency.name, m.Value, m.Unit, m.n, m.note)
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is every end-to-end metric, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"job_p50_ms", "ms"}, {"jobs_per_s", "1/s"},
	{"sim_cycles_per_s", "cycles/s"}, {"goodput_rps", "1/s"}, {"peak_rss_mb", "MB"}, {"ok_frac", "ratio"},
}

// tailLatency is measured with the end-to-end metrics but listed with the
// per-layer ones, which carry no bound: on a shared 2-CPU virtual machine the
// open loop's p99 follows the host's CPU steal (fleet-zipf: 8.5 ms at 1%
// steal, 14 ms at 8%, 19 ms at 18%), so ten runs spread past any bound a
// regression gate could use. Every untraced record still prints it.
var tailLatency = metricDef{"job_p99_ms", "ms"}

// perLayer is every per-layer metric, in BENCHMARK.json order.
func perLayer() []metricDef {
	us := func(names ...string) []metricDef {
		var out []metricDef
		for _, n := range names {
			out = append(out, metricDef{n + "_us", "us"})
		}
		return out
	}
	out := []metricDef{tailLatency}
	out = append(out, us("spec.decode", "spec.normalize", "spec.normalize_source", "spec.key", "spec.build", "exp.suite",
		"lang.frontend", "lang.lower", "prof.collect")...)
	out = append(out, metricDef{"prof.collect_allocs", "count"})
	out = append(out, us("compiler.classify", "compiler.compile", "compiler.compile_static")...)
	out = append(out, metricDef{"compiler.compile_allocs", "count"}, metricDef{"compiler.compile_bytes", "B"})
	out = append(out, us("core.new", "core.reset", "core.run")...)
	out = append(out, metricDef{"core.run_allocs", "count"}, metricDef{"core.ns_per_cycle", "ns/cycle"})
	out = append(out, us("server.render")...)
	out = append(out, metricDef{"core.sim_cycles", "count"})
	for _, k := range stallKinds() {
		out = append(out, metricDef{k, "count"})
	}
	for _, n := range []string{"core.tm_conflicts", "core.spawns", "mem.l2_hits", "mem.l2_misses",
		"mem.c2c_transfers", "mem.invalidations", "mem.writebacks"} {
		out = append(out, metricDef{n, "count"})
	}
	for _, f := range figureOrder {
		out = append(out, metricDef{figureSpanName(f) + "_s", "s"})
	}
	out = append(out,
		metricDef{"server.result_hit_frac", "ratio"}, metricDef{"server.compile_hit_frac", "ratio"},
		metricDef{"server.pool_hit_frac", "ratio"}, metricDef{"server.batched_runs", "count"},
		metricDef{"server.shed", "count"}, metricDef{"server.peer_forwards", "count"},
		metricDef{"server.peer_fill_frac", "ratio"}, metricDef{"server.peer_fallbacks", "count"},
		metricDef{"server.overhead_us", "us"},
		metricDef{"loadgen.lag_p99_ms", "ms"}, metricDef{"loadgen.sent", "count"}, metricDef{"loadgen.inflight_max", "count"},
		metricDef{"trace.overhead_pct", "%"},
	)
	return out
}

// cpuWarmup is how long every CPU is kept busy before anything is timed.
// On a virtual machine whose CPUs were idle, the second CPU runs at a
// fraction of its speed for the first second or two of load; without the
// warm-up that start-up slowdown lands in whichever metric comes first.
const cpuWarmup = 2500 * time.Millisecond

// warmCPUs keeps GOMAXPROCS goroutines spinning for d and returns the
// spin rate per CPU over the warm-up's last second, in millions of loop
// iterations per second: a gauge of how fast the host ran this run.
func warmCPUs(d time.Duration) float64 {
	var wg sync.WaitGroup
	var tail atomic.Int64
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(i + 1)
			for t0 := time.Now(); time.Since(t0) < d; {
				for j := 0; j < 10000; j++ {
					x = x*6364136223846793005 + 1442695040888963407
				}
				if time.Since(t0) >= d-time.Second {
					tail.Add(10000)
				}
			}
			spinSink.Add(x)
		}()
	}
	wg.Wait()
	return float64(tail.Load()) / float64(runtime.GOMAXPROCS(0)) / 1e6
}

// spinSink keeps the warm-up loop from being optimized away.
var spinSink atomic.Uint64

// cpuTimes returns the host's steal and total CPU time from /proc/stat,
// in clock ticks.
func cpuTimes() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealPct is the share of CPU time the hypervisor gave to other guests
// since cpuTimes returned steal0 and total0: on a shared virtual machine,
// the latency tails of the open loop follow it. "n/a" where /proc/stat is
// not available.
func stealPct(steal0, total0 int64) string {
	steal, total := cpuTimes()
	if total <= total0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f", 100*float64(steal-steal0)/float64(total-total0))
}

// commit identifies the code under test: the git commit when the checkout
// is a repository, otherwise "tree:" and a digest of the Go sources.
func commit() string {
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		if r, ok := strings.CutPrefix(ref, "ref: "); ok {
			if b, err := os.ReadFile(".git/" + r); err == nil {
				return strings.TrimSpace(string(b))
			}
		} else {
			return ref
		}
	}
	return "tree:" + sourceDigest()
}

// sourceDigest hashes go.mod and every Go file under internal/ and cmd/.
func sourceDigest() string {
	var files []string
	for _, root := range []string{"internal", "cmd"} {
		_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return nil
		})
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range append([]string{"go.mod"}, files...) {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
