package server

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"voltron/internal/compiler"
	"voltron/internal/core"
	"voltron/internal/spec"
)

// testCompiled compiles the tinyJob program the way the server would.
func testCompiled(t testing.TB) (*core.CompiledProgram, core.Config, string) {
	t.Helper()
	req, _, err := spec.DecodeJob(strings.NewReader(tinyJob()))
	if err != nil {
		t.Fatal(err)
	}
	if err := req.Normalize(func(string) bool { return false }); err != nil {
		t.Fatal(err)
	}
	p, err := req.Program.Build()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := compiler.Compile(p, req.CompilerOpts())
	if err != nil {
		t.Fatal(err)
	}
	return cp, req.MachineConfig(nil), req.MachineKey()
}

// TestMachinePoolExclusiveOwnership hammers one pool from 16 goroutines
// under -race: a machine handed out by get must never be owned by two
// workers at once (Machine state is not goroutine-safe, so an aliased
// machine is both a logic bug and a data race the detector would flag via
// the concurrent RunContext calls). It runs once with every goroutine on
// one key and once spread over six keys (same machine config), where the
// idle bound is reached and returns evict other keys' machines.
func TestMachinePoolExclusiveOwnership(t *testing.T) {
	cp, cfg, key := testCompiled(t)
	for _, keys := range []int{1, 6} {
		pool := newMachinePool(2)
		var inUse sync.Map
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				k := fmt.Sprintf("%s/%d", key, g%keys)
				for i := 0; i < 20; i++ {
					m := pool.get(k, cfg)
					if _, loaded := inUse.LoadOrStore(m, true); loaded {
						t.Error("pool handed one machine to two concurrent owners")
					}
					if _, err := m.RunContext(context.Background(), cp); err != nil {
						t.Error(err)
					}
					inUse.Delete(m)
					pool.put(k, m)
				}
			}()
		}
		wg.Wait()
		if got, bound := pool.size(), min(2*keys, pool.maxIdle); got > bound {
			t.Errorf("%d keys: pool holds %d idle machines, bound is %d", keys, got, bound)
		}
	}
}

// TestMachinePoolWideShapeReset cycles warm machines through many-core
// shape changes under -race: 8 goroutines run a hybrid job at 16, 32 and
// 64 cores (one 64-core variant on a non-default 16×4 mesh) against one
// small pool, deliberately sharing a single pool key so every get may hand
// back a machine of a different width and Reset must take the rebuild path
// (cores, memory and mesh columns are rebuild keys). Every run has to
// reproduce the result a fresh machine computes for that shape.
func TestMachinePoolWideShapeReset(t *testing.T) {
	type shape struct {
		cp   *core.CompiledProgram
		cfg  core.Config
		want string
	}
	fingerprint := func(res *core.RunResult) string {
		return fmt.Sprintf("%v %+v %+v", res.RegionCycles, res.Run, res.MemStats)
	}
	var shapes []shape
	for _, v := range []struct{ cores, mesh int }{{16, 0}, {32, 0}, {64, 0}, {64, 16}} {
		machine := ""
		if v.mesh != 0 {
			machine = fmt.Sprintf(`, "machine": {"mesh_cols": %d}`, v.mesh)
		}
		job := fmt.Sprintf(`{"program": {"name": "wide", "kernels": [
			{"kind": "doall-map", "name": "m", "n": 96, "work": 2},
			{"kind": "serial-chain", "name": "c", "n": 16}
		]}, "strategy": "hybrid", "cores": %d%s}`, v.cores, machine)
		req, _, err := spec.DecodeJob(strings.NewReader(job))
		if err != nil {
			t.Fatal(err)
		}
		if err := req.Normalize(func(string) bool { return false }); err != nil {
			t.Fatal(err)
		}
		p, err := req.Program.Build()
		if err != nil {
			t.Fatal(err)
		}
		cp, err := compiler.Compile(p, req.CompilerOpts())
		if err != nil {
			t.Fatal(err)
		}
		cfg := req.MachineConfig(nil)
		res, err := core.New(cfg).RunContext(context.Background(), cp)
		if err != nil {
			t.Fatal(err)
		}
		shapes = append(shapes, shape{cp: cp, cfg: cfg, want: fingerprint(res)})
	}
	pool := newMachinePool(1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				s := shapes[(g+i)%len(shapes)]
				m := pool.get("shared", s.cfg)
				res, err := m.RunContext(context.Background(), s.cp)
				if err != nil {
					t.Error(err)
				} else if got := fingerprint(res); got != s.want {
					t.Errorf("reset machine diverged at %d cores:\ngot  %s\nwant %s",
						s.cfg.Cores, got, s.want)
				}
				pool.put("shared", m)
			}
		}(g)
	}
	wg.Wait()
}

// TestPooledMatchesFreshServer runs the same job mix against a pooled
// server and one with pooling disabled; every response body must be
// byte-identical (the response is rendered from the RunResult, so equal
// bodies mean equal simulations).
func TestPooledMatchesFreshServer(t *testing.T) {
	jobs := []string{
		tinyJob(),
		`{"program": {"name": "tiny", "kernels": [
			{"kind": "doall-map", "name": "m", "n": 64, "work": 2},
			{"kind": "serial-chain", "name": "c", "n": 16}
		]}, "strategy": "hybrid", "cores": 4, "baseline": true}`,
		`{"program": {"name": "pipe", "kernels": [
			{"kind": "pipeline", "name": "p", "n": 48}
		]}, "strategy": "ftlp", "cores": 4, "trace": true}`,
		`{"program": {"name": "ilp", "kernels": [
			{"kind": "ilp-loop", "name": "i", "n": 32}
		]}, "strategy": "ilp", "cores": 2}`,
		tinyJob(), // repeat: served from cache, must match the first answer
	}
	_, pooled := newTestServer(t, Config{Workers: 2})
	_, fresh := newTestServer(t, Config{Workers: 2, DisableMachinePool: true})
	for i, job := range jobs {
		respP, bodyP := postJob(t, pooled, job)
		respF, bodyF := postJob(t, fresh, job)
		if respP.StatusCode != http.StatusOK || respF.StatusCode != http.StatusOK {
			t.Fatalf("job %d: status pooled=%d fresh=%d, body %s", i, respP.StatusCode, respF.StatusCode, bodyP)
		}
		if string(bodyP) != string(bodyF) {
			t.Errorf("job %d: pooled body differs from fresh\npooled: %s\nfresh:  %s", i, bodyP, bodyF)
		}
	}
}

// TestCompileCacheSharedAcrossVariants: trace variants and machine-latency
// ablations of one program × strategy must share a single compile, reported
// per request by the X-Voltron-Compile-Cache header and in aggregate by
// /metrics.
func TestCompileCacheSharedAcrossVariants(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	post := func(body, wantRun, wantCompile string) {
		t.Helper()
		resp, b := postJob(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, b)
		}
		if got := resp.Header.Get("X-Voltron-Cache"); got != wantRun {
			t.Errorf("X-Voltron-Cache = %q, want %q", got, wantRun)
		}
		if got := resp.Header.Get("X-Voltron-Compile-Cache"); got != wantCompile {
			t.Errorf("X-Voltron-Compile-Cache = %q, want %q", got, wantCompile)
		}
	}
	job := func(extra string) string {
		return `{"program": {"name": "ccache", "kernels": [
			{"kind": "doall-map", "name": "m", "n": 64, "work": 2}
		]}, "strategy": "llp", "cores": 2` + extra + `}`
	}
	// Distinct run keys, one compiled artifact.
	post(job(``), "miss", "miss")
	post(job(`, "trace": true`), "miss", "hit")
	post(job(`, "machine": {"queue_base_lat": 7}`), "miss", "hit")
	// A result-cache hit never consults the compile stage: no header.
	post(job(``), "hit", "")
	// A different strategy is a different artifact.
	post(`{"program": {"name": "ccache", "kernels": [
			{"kind": "doall-map", "name": "m", "n": 64, "work": 2}
		]}, "strategy": "hybrid", "cores": 2}`, "miss", "miss")

	m := s.Metrics()
	if m.CompileCacheMisses != 2 || m.CompileCacheHits != 2 {
		t.Errorf("compile cache hits=%d misses=%d, want 2/2", m.CompileCacheHits, m.CompileCacheMisses)
	}
	if m.CompileCacheEntries != 2 {
		t.Errorf("compile cache entries = %d, want 2", m.CompileCacheEntries)
	}
	if want := 0.5; m.CompileCacheHitRatio != want {
		t.Errorf("compile cache hit ratio = %v, want %v", m.CompileCacheHitRatio, want)
	}
}

// TestPoolMetricsAccount: across a burst of distinct jobs, every simulation
// got its machine from the pool (hits + news == simulations), the pool
// retains warm machines afterwards, and repeated bursts reuse them.
func TestPoolMetricsAccount(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, CacheEntries: 1})
	job := func(n int) string {
		return fmt.Sprintf(`{"program": {"name": "burst", "kernels": [
			{"kind": "doall-map", "name": "m", "n": %d, "work": 2}
		]}, "strategy": "llp", "cores": 2}`, 64+16*n)
	}
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, b := postJob(t, ts, job(i))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("job %d: status %d: %s", i, resp.StatusCode, b)
			}
		}(i)
	}
	wg.Wait()
	waitForIdle(t, s)
	m := s.Metrics()
	if m.MachinePoolHits+m.MachinePoolNews != m.Simulations {
		t.Errorf("pool accounting: hits %d + news %d != simulations %d",
			m.MachinePoolHits, m.MachinePoolNews, m.Simulations)
	}
	if m.MachinePoolIdle == 0 {
		t.Error("no warm machines retained after the burst")
	}
	if m.MachinePoolResets != m.MachinePoolHits {
		t.Errorf("resets %d != hits %d", m.MachinePoolResets, m.MachinePoolHits)
	}
	// A second identical burst runs entirely on warm machines.
	news := m.MachinePoolNews
	for i := 0; i < 6; i++ {
		// CacheEntries: 1 evicts all but the last body, so these re-simulate.
		if resp, b := postJob(t, ts, job(i)); resp.StatusCode != http.StatusOK {
			t.Fatalf("rerun %d: status %d: %s", i, resp.StatusCode, b)
		}
	}
	waitForIdle(t, s)
	if m = s.Metrics(); m.MachinePoolNews != news {
		t.Errorf("serial rerun built %d fresh machines, want 0", m.MachinePoolNews-news)
	}
}

// TestMachinePoolEvictsStaleShapes: once the pool holds maxIdle idle
// machines, a machine returned under a new shape evicts the least recently
// returned machine of another shape instead of being dropped, so cycling
// through many shapes (every width 1..64, plus non-default meshes) never
// freezes the pool on the first shapes it saw: the latest shapes stay warm
// and a new shape still gets pool hits on reuse.
func TestMachinePoolEvictsStaleShapes(t *testing.T) {
	type shape struct {
		key string
		cfg core.Config
	}
	mk := func(cores, mesh int) shape {
		cfg := core.DefaultConfig(cores)
		cfg.MeshCols = mesh
		return shape{fmt.Sprintf("cores=%d mesh=%d", cores, mesh), cfg}
	}
	var shapes []shape
	for c := 1; c <= 64; c++ {
		shapes = append(shapes, mk(c, 0))
	}
	for _, c := range []int{16, 32, 64} {
		shapes = append(shapes, mk(c, 4), mk(c, 8))
	}
	pool := newMachinePool(2)
	for _, s := range shapes {
		pool.put(s.key, pool.get(s.key, s.cfg))
	}
	if got := pool.size(); got != pool.maxIdle {
		t.Fatalf("pool holds %d idle machines after %d shapes, want the bound %d", got, len(shapes), pool.maxIdle)
	}
	if pool.hits.Value() != 0 {
		t.Fatalf("distinct shapes recorded %d pool hits", pool.hits.Value())
	}
	// The maxIdle most recently returned shapes are the ones still warm.
	recent := shapes[len(shapes)-pool.maxIdle:]
	for _, s := range recent {
		pool.put(s.key, pool.get(s.key, s.cfg))
	}
	if got := pool.hits.Value(); got != int64(len(recent)) {
		t.Errorf("the %d most recent shapes got %d pool hits, want all", len(recent), got)
	}
	// A brand-new shape is pooled on return and reused afterwards.
	fresh := mk(48, 12)
	hits := pool.hits.Value()
	for i := 0; i < 3; i++ {
		pool.put(fresh.key, pool.get(fresh.key, fresh.cfg))
	}
	if got := pool.hits.Value() - hits; got != 2 {
		t.Errorf("new shape after %d shapes got %d pool hits in 3 uses, want 2", len(shapes), got)
	}
	if got := pool.size(); got != pool.maxIdle {
		t.Errorf("pool holds %d idle machines, bound is %d", got, pool.maxIdle)
	}
	// The oldest shapes were evicted: reusing one builds fresh.
	news := pool.news.Value()
	pool.put(shapes[0].key, pool.get(shapes[0].key, shapes[0].cfg))
	if pool.news.Value() != news+1 {
		t.Error("the least recently returned shape was not the one evicted")
	}
}
