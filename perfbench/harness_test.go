package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func TestPercentileSampleCounts(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct {
		p      float64
		v      float64
		beyond int
	}{{50, 500, 500}, {99, 990, 10}, {99.9, 999, 1}, {100, 1000, 0}} {
		v, beyond := percentile(s, c.p)
		if v != c.v || beyond != c.beyond {
			t.Errorf("p%g of 1..1000 = %v with %d beyond, want %v with %d", c.p, v, beyond, c.v, c.beyond)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 99.9}, {1000, 99}, {999, 95}, {200, 95}, {100, 90}, {40, 75}, {21, 50}, {20, 50}, {19, 0}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
	var ms = newMetrics()
	ms.latency("p50", "p99", sample(s[:500]))
	if m := ms.m["p99"]; m.n != 500 || m.Value != 495 || m.note != "5 beyond; highest supported percentile p95" {
		t.Errorf("p99 of 500 samples = %+v", m)
	}
}

func TestSelfTimeOverNestedSpans(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "job", start: 0, end: 100 * ms, parent: -1},
		{name: "a", start: 10 * ms, end: 40 * ms, parent: 0},
		{name: "b", start: 30 * ms, end: 60 * ms, parent: 0},  // overlaps a: union 10..60
		{name: "c", start: 90 * ms, end: 120 * ms, parent: 0}, // clipped to the parent's end
		{name: "a1", start: 15 * ms, end: 25 * ms, parent: 1},
		{name: "a2", start: 20 * ms, end: 35 * ms, parent: 1}, // union 15..35 within a
		{name: "probe", start: 50 * ms, end: 55 * ms, parent: -1},
	}
	want := []time.Duration{40 * ms, 10 * ms, 30 * ms, 30 * ms, 10 * ms, 15 * ms, 5 * ms}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].name, got[i], want[i])
		}
	}
}

func TestOpenLoopChargesLateSendsFromDueTime(t *testing.T) {
	ms := time.Millisecond
	// One sender, three arrivals 1ms apart, each taking 20ms: the second
	// and third wait behind the first, and that wait is their latency too.
	sched := []arrival{{due: 0, job: 0}, {due: 1 * ms, job: 1}, {due: 2 * ms, job: 2}}
	shots, ls := openLoop(1, sched, 0, func(int) outcome {
		time.Sleep(20 * ms)
		return outcome{ok: true}
	})
	if ls.sent != 3 || ls.inflightMax != 1 {
		t.Fatalf("sent %d, inflight max %d; want 3 and 1", ls.sent, ls.inflightMax)
	}
	for i, s := range shots {
		minLag := time.Duration(i) * 19 * ms // sent after i predecessors of 20ms, due i ms later
		if s.lag() < minLag {
			t.Errorf("shot %d lag %v, want >= %v", i, s.lag(), minLag)
		}
		if s.latency != s.done-s.due || s.latency < s.lag()+20*ms {
			t.Errorf("shot %d latency %v (lag %v) not charged from its due time", i, s.latency, s.lag())
		}
	}
	// With maxLag, an arrival already later than that is dropped unsent.
	shots, ls = openLoop(1, sched, 5*ms, func(int) outcome {
		time.Sleep(20 * ms)
		return outcome{ok: true}
	})
	if ls.sent != 1 || !shots[1].dropped || !shots[2].dropped {
		t.Errorf("sent %d, dropped %v %v; want only the first sent", ls.sent, shots[1].dropped, shots[2].dropped)
	}
}

// inRepoRoot runs f with the repository root as the working directory,
// where the workloads find the language corpus.
func inRepoRoot(t *testing.T, f func()) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	f()
}

func TestCorruptedExpectationFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a replica")
	}
	good, err := loadExpectations()
	if err != nil {
		t.Fatal(err)
	}
	bad := &expectations{figures: good.figures, digests: map[string][]string{}}
	for k, d := range good.digests {
		bad.digests[k] = d
	}
	corrupt := append([]string(nil), good.digests["source-cold"]...)
	for i := range corrupt {
		corrupt[i] = "0000000000000000"
	}
	bad.digests["source-cold"] = corrupt
	inRepoRoot(t, func() {
		for _, c := range []struct {
			exp  *expectations
			want bool
		}{{good, true}, {bad, false}} {
			res, err := runSourceCold(runConfig{seed: 1, window: 300 * time.Millisecond, exp: c.exp})
			if err != nil {
				t.Fatal(err)
			}
			if res.correct != c.want || (res.failed == 0) == !c.want || res.attempted == 0 {
				t.Errorf("corrupted=%v: correct=%v failed=%d attempted=%d", !c.want, res.correct, res.failed, res.attempted)
			}
		}
	})
}

func TestBenchmarkJSONNamesTheReportedMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark reports %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark implements %d", len(spec.Workloads), len(workloads))
	}
}
