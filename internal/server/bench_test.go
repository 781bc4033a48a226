package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// BenchmarkServeJob measures the per-job cost of the serving hot path:
// CacheEntries is 1, so every request misses the result cache and
// simulates, while the compile-artifact cache and (in the pooled variants)
// the machine pool stay warm — exactly the steady state the two-level
// split optimizes. In pooled and fresh two jobs alternate; fresh is the
// before-state, the same requests with warm-machine reuse disabled. sweep
// is a machine-latency ablation: one program whose region-sync, mode-switch
// and queue settings change on every job, so each job must reuse the one
// warm machine of its shape and the one compiled artifact of its program.
func BenchmarkServeJob(b *testing.B) {
	jobs := [2]string{
		`{"program": {"name": "benchA", "kernels": [
			{"kind": "doall-map", "name": "m", "n": 64, "work": 2},
			{"kind": "serial-chain", "name": "c", "n": 16}
		]}, "strategy": "llp", "cores": 2}`,
		`{"program": {"name": "benchB", "kernels": [
			{"kind": "doall-map", "name": "m", "n": 96, "work": 2},
			{"kind": "serial-chain", "name": "c", "n": 24}
		]}, "strategy": "llp", "cores": 2}`,
	}
	b.Run("pooled", func(b *testing.B) { benchServe(b, false, func(i int) string { return jobs[i&1] }) })
	b.Run("fresh", func(b *testing.B) { benchServe(b, true, func(i int) string { return jobs[i&1] }) })
	b.Run("sweep", func(b *testing.B) { benchServe(b, false, sweepJob) })
}

// benchServe posts job(i) for i = 0..b.N-1 to a one-worker server with a
// one-entry result cache, after two warm-up posts.
func benchServe(b *testing.B, disablePool bool, job func(int) string) {
	post := jobPoster(b, disablePool, job)
	post(0) // warm the compile cache and (when enabled) the pool
	post(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(i)
	}
}

// jobPoster returns a function posting job(i) in-process to a new
// one-worker server whose result cache holds one entry, so every post of
// a new job simulates.
func jobPoster(tb testing.TB, disablePool bool, job func(int) string) func(int) {
	h := New(Config{Workers: 1, CacheEntries: 1, DisableMachinePool: disablePool}).Handler()
	return func(i int) {
		req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(job(i)))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			tb.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
}

// sweepJob is job i of a machine-latency sweep over one kernel program
// (a DOALL map, a pipeline and a serial chain on 4 cores): i walks a
// 4×4×4×4×4 grid of region-sync, mode-switch, queue-base and queue-hop
// latency and queue capacity, so consecutive jobs never share a result.
func sweepJob(i int) string {
	g := func(k int) int { return 1 + i>>(2*k)&3 }
	return fmt.Sprintf(`{"program": {"name": "sweep", "kernels": [
			{"kind": "doall-map", "name": "m", "n": 96, "work": 2},
			{"kind": "pipeline", "name": "p", "n": 32},
			{"kind": "serial-chain", "name": "c", "n": 16}
		]}, "strategy": "hybrid", "cores": 4, "machine": {"region_sync_lat": %d,
		"mode_switch_lat": %d, "queue_base_lat": %d, "queue_hop_lat": %d, "queue_cap": %d}}`,
		g(0), g(1), g(2), g(3), 4*g(4))
}

// TestSweepJobAllocCeiling is the allocation guard for the latency-sweep
// serving path (BenchmarkServeJob/sweep): with the compile cache and the
// machine pool warm, a job whose latency settings differ from the previous
// one's must neither build a fresh machine (a pool keyed finer than the
// machine shape) nor rebuild the program's IR (a build on a compile hit).
// Either regression adds hundreds of allocations to the ~100 a job costs.
func TestSweepJobAllocCeiling(t *testing.T) {
	post, i := jobPoster(t, false, sweepJob), 0
	post(i) // compile the program and warm the pool
	allocs := testing.AllocsPerRun(50, func() { i++; post(i) })
	const ceiling = 150
	if allocs > ceiling {
		t.Errorf("sweep job allocates %.0f objects, ceiling %d — a job is building a machine or its IR again", allocs, ceiling)
	}
	t.Logf("%.0f allocs per sweep job", allocs)
}
