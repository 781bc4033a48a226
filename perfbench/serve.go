package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"time"

	"voltron/internal/lang"
	"voltron/internal/server"
	"voltron/internal/spec"
)

// setupReps is how many times a serve workload sets up (the last set-up is
// the one measured against); setup_s is their median.
const setupReps = 5

// replica is one in-process server behind a loopback HTTP listener.
type replica struct {
	srv *server.Server
	ts  *httptest.Server
}

func bootReplica(workers int) *replica {
	srv := server.New(server.Config{Workers: workers})
	return &replica{srv: srv, ts: httptest.NewServer(srv.Handler())}
}

func (r *replica) close() { r.ts.Close() }

// counters is the sum of the servers' Metrics() counters the per-layer
// metrics are deltas of.
type counters struct {
	hits, misses, deduped                      int64
	compileHits, compileMisses, compileDeduped int64
	poolHits, poolNews, batched, shed          int64
	forwards, fills, fallbacks                 int64
}

func snapshot(servers []*server.Server) counters {
	var c counters
	for _, s := range servers {
		m := s.Metrics()
		c.hits += m.CacheHits
		c.misses += m.CacheMisses
		c.deduped += m.CacheDeduped
		c.compileHits += m.CompileCacheHits
		c.compileMisses += m.CompileCacheMisses
		c.compileDeduped += m.CompileCacheDeduped
		c.poolHits += m.MachinePoolHits
		c.poolNews += m.MachinePoolNews
		c.batched += m.BatchedRuns
		c.shed += m.ShedSimulate + m.ShedCachedRead
		c.forwards += m.PeerForwards
		c.fills += m.PeerFills
		c.fallbacks += m.PeerFallbacks
	}
	return c
}

func frac(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// serverLayers records the deltas of the server counters over the
// measured window.
func serverLayers(ms *metrics, before, after counters) {
	d := func(a, b int64) int64 { return b - a }
	hits, misses, dedup := d(before.hits, after.hits), d(before.misses, after.misses), d(before.deduped, after.deduped)
	ms.set("server.result_hit_frac", "ratio", frac(hits, hits+misses+dedup), int(hits+misses+dedup), "")
	ch, cm, cd := d(before.compileHits, after.compileHits), d(before.compileMisses, after.compileMisses), d(before.compileDeduped, after.compileDeduped)
	ms.set("server.compile_hit_frac", "ratio", frac(ch+cd, ch+cm+cd), int(ch+cm+cd), "")
	ph, pn := d(before.poolHits, after.poolHits), d(before.poolNews, after.poolNews)
	ms.set("server.pool_hit_frac", "ratio", frac(ph, ph+pn), int(ph+pn), fmt.Sprintf("%d pooled, %d fresh machines", ph, pn))
	ms.set("server.batched_runs", "count", float64(d(before.batched, after.batched)), 0, "")
	ms.set("server.shed", "count", float64(d(before.shed, after.shed)), 0, "")
	fw, fi := d(before.forwards, after.forwards), d(before.fills, after.fills)
	ms.set("server.peer_forwards", "count", float64(fw), 0, "")
	ms.set("server.peer_fill_frac", "ratio", frac(fi, fw), int(fw), "")
	ms.set("server.peer_fallbacks", "count", float64(d(before.fallbacks, after.fallbacks)), 0, "")
}

// tally adds shots to the result's counts and returns the latencies (ms)
// of the OK ones, their simulated cycles, and how many met limit.
func tally(res *result, shots []shot, limit time.Duration) (lat sample, cycles int64, good int) {
	for _, s := range shots {
		res.attempted++
		if s.mismatch {
			res.correct = false
		}
		if !s.ok {
			res.failed++
			continue
		}
		lat = append(lat, float64(s.latency)/1e6)
		cycles += s.cycles
		if s.latency <= limit {
			good++
		}
	}
	return lat, cycles, good
}

// closedMetrics records a closed loop's end-to-end metrics.
func closedMetrics(res *result, shots []shot, elapsed, limit time.Duration) {
	lat, cycles, good := tally(res, shots, limit)
	ms, sec := res.m, elapsed.Seconds()
	ms.latency("job_p50_ms", "job_p99_ms", lat)
	ms.set("jobs_per_s", "1/s", float64(len(lat))/sec, len(lat), "OK jobs per second")
	ms.set("sim_cycles_per_s", "cycles/s", float64(cycles)/sec, len(lat), "simulated cycles of OK jobs per host second")
	ms.set("goodput_rps", "1/s", float64(good)/sec, len(lat), fmt.Sprintf("OK jobs within %v per second", limit))
}

// sendOrder returns the shots sorted by send time.
func sendOrder(shots []shot) []shot {
	out := append([]shot(nil), shots...)
	sort.Slice(out, func(i, j int) bool { return out[i].sent < out[j].sent })
	return out
}

// replayLayers is the traced run's second half: the first n shots, in the
// order they were sent, replayed through the layer functions against a
// mirror of the server's caches (warmed like the server's), with spans
// and, to price the tracing itself, without.
func replayLayers(cfg runConfig, res *result, u *universe, shots []shot, n, workers int, warm [][]byte) error {
	shots = sendOrder(shots)
	if len(shots) > n {
		shots = shots[:n]
	}
	replay := func(l *layerRun) (sample, error) {
		st := newReplayState(workers)
		for _, b := range warm {
			if err := st.warm(b); err != nil {
				return nil, err
			}
		}
		var wall sample
		for i, s := range shots {
			t0 := time.Now()
			ok, err := l.replayJob(st, u.body[s.job], i, cfg.exp.want(u, s.job))
			if err != nil {
				return nil, err
			}
			wall = append(wall, float64(time.Since(t0)))
			if !ok {
				res.correct = false
				res.logf("replay of %s job %d differs from the recorded expectation", u.name, s.job)
			}
		}
		return wall, nil
	}
	// The untraced replay runs before and after the traced one, so neither
	// side alone pays for first use.
	before, err := replay(&layerRun{})
	if err != nil {
		return err
	}
	lr := newLayerRun()
	if _, err := replay(lr); err != nil {
		return err
	}
	after, err := replay(&layerRun{})
	if err != nil {
		return err
	}
	plain := (before.median() + after.median()) / 2
	var traced sample
	for _, s := range lr.rec.spans {
		if s.name == "job" {
			traced = append(traced, float64(s.end-s.start))
		}
	}
	latency := map[int]time.Duration{}
	for i, s := range shots {
		latency[i] = s.latency
	}
	lr.report(res.layers(), latency)
	res.layers().set("trace.overhead_pct", "%", 100*(traced.median()-plain)/plain, len(shots),
		"replayed job time with spans and allocation counters against without")
	return nil
}

// loadgenLayers records the generator's own counters.
func loadgenLayers(ms *metrics, shots []shot, ls loadStats) {
	var lag sample
	for _, s := range shots {
		lag = append(lag, float64(s.lag())/1e6)
	}
	v, _ := percentile(lag.sorted(), 99)
	ms.set("loadgen.lag_p99_ms", "ms", v, len(lag), "how late the generator sent")
	ms.set("loadgen.sent", "count", float64(ls.sent), 0, "")
	ms.set("loadgen.inflight_max", "count", float64(ls.inflightMax), 0, "")
}

// sourceColdLimit is source-cold's latency limit for goodput.
const sourceColdLimit = 100 * time.Millisecond

// sourceOrder is a run's job order over the source-cold universe: the
// generated programs from a seed-chosen offset, with the corpus programs
// (in a seed-chosen order) placed every 100 jobs from the 40th on.
func sourceOrder(seed int64, corpus int) []int {
	rng := rand.New(rand.NewSource(seed))
	off := rng.Intn(sourceRandom)
	perm := rng.Perm(corpus)
	var order []int
	for i := 0; i < sourceRandom; i++ {
		if k := (i - 40) / 100; i >= 40 && (i-40)%100 == 0 && k < corpus {
			order = append(order, sourceRandom+perm[k])
		}
		order = append(order, (off+i)%sourceRandom)
	}
	return order
}

// runSourceCold is the source-cold workload: one client, one replica,
// every job a distinct source program that misses both caches.
func runSourceCold(cfg runConfig) (*result, error) {
	res := &result{correct: true, m: newMetrics()}
	workers := runtime.GOMAXPROCS(0)
	var setup sample
	var u *universe
	var rep *replica
	p := newPoster(1)
	defer p.close()
	for r := 0; r < setupReps; r++ {
		if rep != nil {
			rep.close()
		}
		t0 := time.Now()
		var err error
		if u, err = sourceUniverse(); err != nil {
			return nil, err
		}
		rep = bootReplica(workers)
		warm := sourceJob(fmt.Sprintf("warm%d", r), lang.RandomSource(int64(-1-r)), 4)
		if err := warmUp(p, rep.ts.URL, warm); err != nil {
			rep.close()
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	defer rep.close()
	order := sourceOrder(cfg.seed, len(u.jobs)-sourceRandom)
	before := snapshot([]*server.Server{rep.srv})
	shots, elapsed := closedLoop(1, cfg.window, cycle(order), func(j int) outcome {
		return p.post(rep.ts.URL, u.body[j], cfg.exp.want(u, j))
	})
	after := snapshot([]*server.Server{rep.srv})
	res.m.set("setup_s", "s", setup.median(), len(setup), "generate the universe, boot the replica, one warm-up job")
	closedMetrics(res, shots, elapsed, sourceColdLimit)
	res.common()
	if cfg.trace {
		serverLayers(res.layers(), before, after)
		loadgenLayers(res.layers(), shots, loadStats{sent: len(shots), inflightMax: 1})
		return res, replayLayers(cfg, res, u, shots, 150, workers, nil)
	}
	return res, nil
}

// warmUp posts one set-up job, whose output is not pinned, and requires
// a 200.
func warmUp(p *poster, url string, req *spec.JobRequest) error {
	b, err := json.Marshal(req)
	if err != nil {
		return err
	}
	if o := p.post(url, b, ""); o.status != http.StatusOK {
		return fmt.Errorf("warm-up job: status %d", o.status)
	}
	return nil
}

// sweepWarmMachine is the default machine the sweep's set-up compiles
// under; no grid point equals it.
var sweepWarmMachine = spec.MachineOptions{}

// sweepLimit is serve-sweep's latency limit for goodput.
const sweepLimit = 50 * time.Millisecond

// runServeSweep is the serve-sweep workload: nproc clients replay a
// machine-latency ablation sweep, setting by setting in a seed-chosen
// order, against one replica whose compile cache set-up warmed.
func runServeSweep(cfg runConfig) (*result, error) {
	res := &result{correct: true, m: newMetrics()}
	workers := runtime.GOMAXPROCS(0)
	var setup sample
	var u *universe
	var nprog int
	var rep *replica
	p := newPoster(workers)
	defer p.close()
	for r := 0; r < setupReps; r++ {
		if rep != nil {
			rep.close()
		}
		t0 := time.Now()
		var err error
		if u, nprog, err = sweepUniverse(); err != nil {
			return nil, err
		}
		rep = bootReplica(workers)
		for _, prog := range u.jobs[:nprog] {
			warm := *prog
			warm.Machine = sweepWarmMachine
			if err := warmUp(p, rep.ts.URL, &warm); err != nil {
				rep.close()
				return nil, err
			}
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	defer rep.close()
	rng := rand.New(rand.NewSource(cfg.seed))
	var order []int
	for _, s := range rng.Perm(len(u.jobs) / nprog) {
		for q := 0; q < nprog; q++ {
			order = append(order, s*nprog+q)
		}
	}
	before := snapshot([]*server.Server{rep.srv})
	shots, elapsed := closedLoop(workers, cfg.window, cycle(order), func(j int) outcome {
		return p.post(rep.ts.URL, u.body[j], cfg.exp.want(u, j))
	})
	after := snapshot([]*server.Server{rep.srv})
	res.m.set("setup_s", "s", setup.median(), len(setup), "boot the replica and warm its compile cache")
	closedMetrics(res, shots, elapsed, sweepLimit)
	res.common()
	if cfg.trace {
		serverLayers(res.layers(), before, after)
		loadgenLayers(res.layers(), shots, loadStats{sent: len(shots), inflightMax: workers})
		var warm [][]byte
		for _, prog := range u.jobs[:nprog] {
			w := *prog
			w.Machine = sweepWarmMachine
			b, err := json.Marshal(&w)
			if err != nil {
				return nil, err
			}
			warm = append(warm, b)
		}
		return res, replayLayers(cfg, res, u, shots, 300, workers, warm)
	}
	return res, nil
}

// Fleet-zipf shape: Zipf exponent over the catalog, the two phases' rates,
// the steady phase's share of the window, and the latency limit. In the
// overload phase a sender abandons an arrival already later than half the
// limit: one sent later would sit on the limit's edge, and whether it
// counted toward goodput would turn on a fraction of a millisecond.
const (
	fleetReplicas  = 3
	fleetZipfS     = 1.1
	fleetSteadyRPS = 300
	fleetOverRPS   = 3000
	fleetSteadyPct = 75
	fleetLimit     = 50 * time.Millisecond
	fleetGCPercent = 1600
	// fleetWarm is how many of the most popular catalog entries set-up
	// sends once, so the measured stream starts on a warm head and its
	// misses come from the tail.
	fleetWarm = 128
)

// fleetPopularity fixes which catalog entry holds each popularity rank;
// the seed draws the request stream over it.
var fleetPopularity = rand.New(rand.NewSource(1)).Perm(fleetCatalogSize)

// runFleetZipf is the fleet-zipf workload: an open loop of Zipf-popular
// catalog jobs against a 3-replica cluster, first below capacity (steady)
// and then above it (overload).
func runFleetZipf(cfg runConfig) (*result, error) {
	// This process hosts the load generator and all three replicas in one
	// heap. At the default GC percent a collection paced by one of them
	// stalled the others' requests for 30-100 ms, which separate processes
	// would not share, and the steady p99 counted how many collections a
	// run happened to hit. At 400 a collection still came every 1.3 s and
	// the requests it overlapped (about 2% of them) made up much of the
	// p99; at fleetGCPercent one comes every 5-7 s (live heap ≈20 MB).
	debug.SetGCPercent(fleetGCPercent)
	res := &result{correct: true, m: newMetrics()}
	senders := runtime.GOMAXPROCS(0)
	workers := max(1, senders/fleetReplicas)
	var setup sample
	var u *universe
	var c *server.Cluster
	p := newPoster(senders)
	defer p.close()
	for r := 0; r < setupReps; r++ {
		if c != nil {
			c.Close()
		}
		t0 := time.Now()
		u = fleetUniverse()
		c = server.NewCluster(fleetReplicas, server.Config{Workers: workers})
		for rank, j := range fleetPopularity[:fleetWarm] {
			if o := p.post(c.URL(rank%c.Size()), u.body[j], cfg.exp.want(u, j)); !o.ok {
				c.Close()
				return nil, fmt.Errorf("warm-up of catalog job %d failed (status %d)", j, o.status)
			}
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	defer c.Close()
	servers := make([]*server.Server, c.Size())
	for i := range servers {
		servers[i] = c.Server(i)
	}
	steadyEnd := cfg.window * fleetSteadyPct / 100
	rng := rand.New(rand.NewSource(cfg.seed))
	zipf := rand.NewZipf(rng, fleetZipfS, 1, uint64(len(u.jobs)-1))
	pick := func() int { return fleetPopularity[zipf.Uint64()] }
	steadySched := poissonSchedule(rng, fleetSteadyRPS, 0, steadyEnd, pick)
	overSched := poissonSchedule(rng, fleetOverRPS, 0, cfg.window-steadyEnd, pick)
	// Start the window on a collected heap: the set-ups' discarded
	// clusters are garbage by now.
	runtime.GC()
	before := snapshot(servers)
	var rr atomic.Int64 // arrivals go to the replicas round-robin
	post := func(j int) outcome {
		url := c.URL(int(rr.Add(1)-1) % c.Size())
		return p.post(url, u.body[j], cfg.exp.want(u, j))
	}
	steady, ls := openLoop(senders, steadySched, 0, post)
	after := snapshot(servers)
	over, lo := openLoop(senders, overSched, fleetLimit/2, post)
	ls.sent += lo.sent
	ls.inflightMax = max(ls.inflightMax, lo.inflightMax)
	lat, cycles, _ := tally(res, steady, fleetLimit)
	sec := ls.elapsed.Seconds()
	ms := res.m
	ms.set("setup_s", "s", setup.median(), len(setup), "boot the 3-replica cluster, send the 128 most popular jobs once")
	ms.latency("job_p50_ms", "job_p99_ms", lat)
	ms.set("jobs_per_s", "1/s", float64(len(lat))/sec, len(lat), "steady phase: OK jobs per second")
	ms.set("sim_cycles_per_s", "cycles/s", float64(cycles)/sec, len(lat), "steady phase: simulated cycles of OK responses per second")
	var good int
	for _, s := range over {
		if s.mismatch {
			res.correct = false
		}
		if s.ok && s.latency <= fleetLimit {
			good++
		}
	}
	ms.set("goodput_rps", "1/s", float64(good)/lo.elapsed.Seconds(), len(over),
		fmt.Sprintf("overload phase at %d/s: OK within %v per second", fleetOverRPS, fleetLimit))
	res.common()
	if cfg.trace {
		serverLayers(res.layers(), before, after)
		loadgenLayers(res.layers(), steady, ls)
		return res, replayLayers(cfg, res, u, steady, 400, workers, nil)
	}
	return res, nil
}
