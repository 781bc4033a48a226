package server

// The warm-worker layer: a pool of reusable core.Machines keyed by machine
// shape, and a batcher that drains queued runs of one compiled artifact
// through whichever request first wins a worker slot. Together
// they make the hot serving path "one event loop per job": the compile
// stage is satisfied by the artifact cache, the machine by a Reset instead
// of a rebuild, and consecutive homogeneous jobs keep one warm machine's
// caches of allocation hot.

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"voltron/internal/core"
	"voltron/internal/stats"
)

// machinePool keeps warm core.Machines per machine shape (spec.MachineKey)
// so a worker slot grabs a reset machine instead of rebuilding the cache
// tag arrays, network queues and TM sets per job. A machine handed out by
// get is exclusively owned by the caller until put back — the pool never
// aliases a machine to two owners (asserted by a -race test). Only idle
// machines are bounded (perKey per shape, maxIdle overall); in-use
// machines are already bounded by the worker semaphore. When the overall
// bound is reached, a returned machine evicts the least recently returned
// idle machine of another shape, so a stream of new shapes keeps pooling
// instead of freezing the pool on the first shapes it saw.
type machinePool struct {
	mu      sync.Mutex
	perKey  int
	maxIdle int
	idle    []idleMachine // oldest return first

	hits   stats.Counter // get satisfied by a warm pooled machine
	resets stats.Counter // Machine.Reset calls performed on reuse
	news   stats.Counter // get built a fresh machine
}

// idleMachine is a pooled machine and the key it was returned under.
type idleMachine struct {
	key string
	m   *core.Machine
}

// newMachinePool creates a pool bounded to perKey idle machines per
// shape. perKey = 0 disables pooling: every get builds fresh and every put
// drops — the before/after comparison path.
func newMachinePool(perKey int) *machinePool {
	return &machinePool{perKey: perKey, maxIdle: 4 * perKey}
}

// get returns a machine configured per cfg, reusing (and resetting) the
// most recently returned pooled one under the same key when available.
func (p *machinePool) get(key string, cfg core.Config) *core.Machine {
	p.mu.Lock()
	for i := len(p.idle) - 1; i >= 0; i-- {
		if p.idle[i].key == key {
			m := p.idle[i].m
			p.idle = slices.Delete(p.idle, i, i+1)
			p.mu.Unlock()
			p.hits.Inc()
			p.resets.Inc()
			m.Reset(cfg)
			return m
		}
	}
	p.mu.Unlock()
	p.news.Inc()
	return core.New(cfg)
}

// put returns a machine to the pool. A key already holding perKey idle
// machines drops it for the GC; a full pool makes room by evicting the
// least recently returned idle machine of another key.
func (p *machinePool) put(key string, m *core.Machine) {
	p.mu.Lock()
	defer p.mu.Unlock()
	same := 0
	for _, e := range p.idle {
		if e.key == key {
			same++
		}
	}
	if same >= p.perKey {
		return
	}
	if len(p.idle) >= p.maxIdle {
		// This key holds fewer than perKey < maxIdle, so another key has
		// a machine to give.
		i := slices.IndexFunc(p.idle, func(e idleMachine) bool { return e.key != key })
		p.idle = slices.Delete(p.idle, i, i+1)
	}
	p.idle = append(p.idle, idleMachine{key: key, m: m})
}

// size reports the number of idle pooled machines.
func (p *machinePool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}

// runReq is one queued simulation: a compiled artifact plus the machine
// configuration to run it on. batch groups runs by artifact so one
// slot-holder drains them back to back on one warm machine; pool selects
// which warm pool serves the run.
type runReq struct {
	batch string // compile-artifact key: the batching group
	pool  string // machine-shape key: which warm pool serves it
	cfg   core.Config
	cp    *core.CompiledProgram
	ctx   context.Context
	done  chan struct{} // closed once res/err are set
	res   *core.RunResult
	err   error
}

// batcher executes runs on a bounded number of worker slots. A request
// enqueues its run into its artifact's group, then either wins a slot — in
// which case it drains the whole group, running queued homogeneous jobs
// consecutively on one warm machine — or observes its run completed by
// another request's drain. There are no standing worker goroutines: every
// run executes on some request handler's own goroutine, so draining HTTP
// handlers drains the batcher for free and nothing can leak.
type batcher struct {
	sem  chan struct{}
	pool *machinePool

	mu     sync.Mutex
	groups map[string][]*runReq

	queued  stats.Counter // runs waiting for a slot (gauge)
	running stats.Counter // runs executing (gauge)
	runs    stats.Counter // simulations executed
	batched stats.Counter // runs drained on another request's slot
}

func newBatcher(workers int, pool *machinePool) *batcher {
	return &batcher{
		sem:    make(chan struct{}, workers),
		pool:   pool,
		groups: map[string][]*runReq{},
	}
}

// run executes req, batching it with queued runs that share its artifact.
// It blocks until the run completed (on this or another goroutine) or ctx
// was canceled while the run was still queued; a run already claimed by a
// drainer is waited out (the canceled ctx is threaded into the simulator,
// so it fails fast).
func (b *batcher) run(ctx context.Context, req *runReq) (*core.RunResult, error) {
	req.ctx = ctx
	req.done = make(chan struct{})
	b.mu.Lock()
	b.groups[req.batch] = append(b.groups[req.batch], req)
	b.mu.Unlock()
	b.queued.Add(1)

	select {
	case b.sem <- struct{}{}:
		b.drain(req)
		<-b.sem
		// drain emptied this group's queue, so our run was claimed — by us
		// or by an earlier drainer that may still be executing it.
		<-req.done
	case <-req.done:
	case <-ctx.Done():
		if b.unqueue(req) {
			b.queued.Add(-1)
			return nil, fmt.Errorf("waiting for a worker slot: %w", ctx.Err())
		}
		<-req.done
	}
	return req.res, req.err
}

// drain claims and executes queued runs of owner's group until the group is
// empty, reusing one warm machine per machine shape via the pool.
// Runs whose request was canceled while queued are answered without
// simulating.
func (b *batcher) drain(owner *runReq) {
	for {
		b.mu.Lock()
		q := b.groups[owner.batch]
		var req *runReq
		for req == nil && len(q) > 0 {
			r := q[0]
			q[0] = nil
			q = q[1:]
			if r.ctx.Err() != nil {
				r.err = fmt.Errorf("waiting for a worker slot: %w", r.ctx.Err())
				b.queued.Add(-1)
				close(r.done)
				continue
			}
			req = r
		}
		if req == nil {
			delete(b.groups, owner.batch)
			b.mu.Unlock()
			return
		}
		b.groups[owner.batch] = q
		b.mu.Unlock()

		b.queued.Add(-1)
		b.running.Add(1)
		m := b.pool.get(req.pool, req.cfg)
		req.res, req.err = m.RunContext(req.ctx, req.cp)
		b.pool.put(req.pool, m)
		b.running.Add(-1)
		b.runs.Inc()
		if req != owner {
			b.batched.Inc()
		}
		close(req.done)
	}
}

// unqueue removes a still-queued run; false means a drainer already claimed
// it (and will close its done channel).
func (b *batcher) unqueue(req *runReq) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	q := b.groups[req.batch]
	for i, r := range q {
		if r == req {
			b.groups[req.batch] = append(q[:i], q[i+1:]...)
			return true
		}
	}
	return false
}
