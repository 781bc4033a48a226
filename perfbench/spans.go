package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer: its name, its interval relative to
// the recorder's origin, the span that caused it (-1 for a root) and the
// job it belongs to.
type span struct {
	name       string
	start, end time.Duration
	parent     int
	job        int
}

// recorder keeps spans in memory; they are summarised when the run ends.
// It is used from one goroutine.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent, job int) int {
	r.spans = append(r.spans, span{name: name, start: time.Since(r.t0), parent: parent, job: job})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) { r.spans[id].end = time.Since(r.t0) }

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover (overlapping children are
// counted once, and children are clipped to the parent's interval).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.end - s.start - covered(s, spans, children[i])
	}
	return out
}

// covered is the length of the union of the child intervals within p.
func covered(p span, spans []span, kids []int) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(spans[k].start, p.start), min(spans[k].end, p.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}
