package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is what one operation reports back to a load loop.
type outcome struct {
	ok       bool  // 200 with the expected output
	mismatch bool  // 200 whose output differs from the recorded expectation
	status   int   // HTTP status (0 on a transport error)
	cycles   int64 // simulated total_cycles of the response
}

// shot is one operation as the load loop saw it.
type shot struct {
	job     int
	due     time.Duration // open loop: when it was due to be sent (from the loop's start)
	sent    time.Duration // when a sender actually sent it
	done    time.Duration // when its response was complete
	latency time.Duration // done-due (open loop) or done-sent (closed loop)
	dropped bool          // open loop: never sent, because it fell too far behind
	outcome
}

// lag is how late the generator sent the operation.
func (s shot) lag() time.Duration { return s.sent - s.due }

// arrival is one scheduled operation of an open loop.
type arrival struct {
	due time.Duration
	job int
}

// poissonSchedule draws exponential inter-arrival gaps at rate per second
// from start until end, each arrival taking its job index from pick. The
// same rng state gives the same schedule.
func poissonSchedule(rng *rand.Rand, rate float64, start, end time.Duration, pick func() int) []arrival {
	var out []arrival
	t := start
	for {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= end {
			return out
		}
		out = append(out, arrival{due: t, job: pick()})
	}
}

// loadStats are the generator's own counters.
type loadStats struct {
	sent        int
	inflightMax int
	elapsed     time.Duration // from the loop's start to its last response
}

// openLoop sends the scheduled arrivals with the given number of sender
// goroutines (each owning one connection's worth of in-flight requests).
// A sender takes the next arrival in schedule order, waits until it is
// due, and sends it; a late sender sends at once, unless it is more than
// maxLag late (maxLag > 0), when the arrival is dropped unsent. Latency is
// measured from the due time, so a stalled sender's delay is charged to
// every request that queued behind it.
func openLoop(senders int, sched []arrival, maxLag time.Duration, do func(job int) outcome) ([]shot, loadStats) {
	shots := make([]shot, len(sched))
	var next atomic.Int64
	var inflight, inflightMax, sentN atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				a := sched[i]
				if d := a.due - time.Since(start); d > 0 {
					time.Sleep(d)
				} else if maxLag > 0 && -d > maxLag {
					shots[i] = shot{job: a.job, due: a.due, sent: -d + a.due, dropped: true}
					continue
				}
				sentN.Add(1)
				n := inflight.Add(1)
				for {
					m := inflightMax.Load()
					if n <= m || inflightMax.CompareAndSwap(m, n) {
						break
					}
				}
				sent := time.Since(start)
				o := do(a.job)
				done := time.Since(start)
				inflight.Add(-1)
				shots[i] = shot{job: a.job, due: a.due, sent: sent, done: done, latency: done - a.due, outcome: o}
			}
		}()
	}
	wg.Wait()
	return shots, loadStats{sent: int(sentN.Load()), inflightMax: int(inflightMax.Load()), elapsed: time.Since(start)}
}

// closedLoop runs clients that each send their next operation as soon as
// the previous one completes, taking job indices in order from next until
// the window ends (or next reports false).
func closedLoop(clients int, window time.Duration, next func() (int, bool), do func(job int) outcome) ([]shot, time.Duration) {
	var mu sync.Mutex
	var shots []shot
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < window {
				mu.Lock()
				job, ok := next()
				mu.Unlock()
				if !ok {
					return
				}
				sent := time.Since(start)
				o := do(job)
				done := time.Since(start)
				mu.Lock()
				shots = append(shots, shot{job: job, due: sent, sent: sent, done: done, latency: done - sent, outcome: o})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return shots, time.Since(start)
}

// cycle returns a next function walking order over and over. The serve
// universes are larger than the server's result and compile caches, so a
// job met again on a later lap has long been evicted and misses again.
func cycle(order []int) func() (int, bool) {
	i := 0
	return func() (int, bool) {
		i++
		return order[(i-1)%len(order)], true
	}
}
