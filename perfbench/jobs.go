package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"voltron/internal/lang"
	"voltron/internal/server"
	"voltron/internal/spec"
	"voltron/internal/workload"
)

// A universe is the fixed, seed-independent set of jobs a serve workload
// draws from; a seed chooses which of them a run sends and in what order.
// Expectations are recorded per universe index, so every seed is checked.
type universe struct {
	name string
	jobs []*spec.JobRequest
	body [][]byte
}

func (u *universe) add(req *spec.JobRequest) {
	b, err := json.Marshal(req)
	if err != nil { // plain request structs always marshal
		panic(err)
	}
	u.jobs = append(u.jobs, req)
	u.body = append(u.body, b)
}

// exampleDir holds the language corpus, relative to the repository root.
const exampleDir = "examples/lang"

// examples loads the source-language corpus in name order.
func examples() (names, srcs []string, err error) {
	paths, err := filepath.Glob(filepath.Join(exampleDir, "*.vs"))
	if err != nil {
		return nil, nil, err
	}
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("no programs in %s (run from the repository root)", exampleDir)
	}
	sort.Strings(paths)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, nil, err
		}
		names = append(names, strings.TrimSuffix(filepath.Base(p), ".vs"))
		srcs = append(srcs, string(b))
	}
	return names, srcs, nil
}

func sourceJob(name, src string, cores int) *spec.JobRequest {
	return &spec.JobRequest{
		Program:  &spec.ProgramSpec{Kind: spec.KindSource, Name: name, Source: src},
		Strategy: "hybrid",
		Cores:    cores,
	}
}

func benchJob(bench, strategy string, cores int) *spec.JobRequest {
	return &spec.JobRequest{Program: &spec.ProgramSpec{Kind: spec.KindBench, Bench: bench}, Strategy: strategy, Cores: cores}
}

// sourceRandom is the number of generated programs in the source-cold
// universe; the corpus programs follow them.
const sourceRandom = 4096

// sourceUniverse is every generated program lang.RandomSource(0..4095)
// followed by the corpus, each compiled hybrid for 4 cores. Every entry
// has a distinct name, so no two share a cache entry.
func sourceUniverse() (*universe, error) {
	u := &universe{name: "source-cold"}
	for k := 0; k < sourceRandom; k++ {
		u.add(sourceJob(fmt.Sprintf("r%04d", k), lang.RandomSource(int64(k)), 4))
	}
	names, srcs, err := examples()
	if err != nil {
		return nil, err
	}
	for i := range names {
		u.add(sourceJob("ex-"+names[i], srcs[i], 4))
	}
	return u, nil
}

// sweepPrograms is the serve-sweep program set: benchmarks, kernel
// compositions and corpus programs, all hybrid on 4 cores.
func sweepPrograms() ([]*spec.JobRequest, error) {
	var out []*spec.JobRequest
	for _, b := range []string{"gsmdecode", "rawcaudio", "164.gzip", "179.art"} {
		out = append(out, benchJob(b, "hybrid", 4))
	}
	out = append(out,
		&spec.JobRequest{Program: &spec.ProgramSpec{Kind: spec.KindKernels, Name: "sw-map", Kernels: []spec.KernelSpec{
			{Kind: "doall-map", Name: "m", N: 192, Work: 3}, {Kind: "serial-chain", Name: "c", N: 32}}}, Strategy: "hybrid", Cores: 4},
		&spec.JobRequest{Program: &spec.ProgramSpec{Kind: spec.KindKernels, Name: "sw-pipe", Kernels: []spec.KernelSpec{
			{Kind: "pipeline", Name: "p", N: 96}, {Kind: "ilp-loop", Name: "i"}}}, Strategy: "hybrid", Cores: 4},
		&spec.JobRequest{Program: &spec.ProgramSpec{Kind: spec.KindKernels, Name: "sw-chase", Kernels: []spec.KernelSpec{
			{Kind: "multichase", Name: "x", Steps: 96}, {Kind: "branchy", Name: "b", N: 128}}}, Strategy: "hybrid", Cores: 4},
	)
	names, srcs, err := examples()
	if err != nil {
		return nil, err
	}
	for _, want := range []string{"dotprod", "stencil", "scan"} {
		i := sort.SearchStrings(names, want)
		if i == len(names) || names[i] != want {
			return nil, fmt.Errorf("corpus program %q missing from %s", want, exampleDir)
		}
		out = append(out, sourceJob("sw-"+want, srcs[i], 4))
	}
	return out, nil
}

// sweepSettings is the machine-latency grid of the ablation sweep: every
// combination of region-sync, mode-switch, queue-base and queue-hop
// latency and receive-queue capacity. No point equals the default machine (whose zero fields the
// set-up warm-up uses), so every measured job misses the result cache.
func sweepSettings() []spec.MachineOptions {
	var out []spec.MachineOptions
	for _, rs := range []int64{2, 3, 6, 8} {
		for _, ms := range []int64{1, 3, 4, 6} {
			for _, qb := range []int64{1, 2, 3, 5} {
				for _, qh := range []int64{1, 2, 3, 4} {
					for _, qc := range []int{4, 8, 16, 32} {
						out = append(out, spec.MachineOptions{RegionSyncLat: rs, ModeSwitchLat: ms, QueueBaseLat: qb, QueueHopLat: qh, QueueCap: qc})
					}
				}
			}
		}
	}
	return out
}

// sweepUniverse crosses the program set with the grid, setting by setting:
// job s*len(programs)+p runs program p under setting s.
func sweepUniverse() (*universe, int, error) {
	progs, err := sweepPrograms()
	if err != nil {
		return nil, 0, err
	}
	u := &universe{name: "serve-sweep"}
	for _, m := range sweepSettings() {
		for _, p := range progs {
			req := *p
			req.Machine = m
			u.add(&req)
		}
	}
	return u, len(progs), nil
}

// fleetCatalogSize is the number of distinct jobs fleet-zipf draws from.
const fleetCatalogSize = 2048

// fleetUniverse is the fleet catalog: benchmarks, kernel compositions
// under every strategy, generated source programs, traced variants, and
// 16/32/64-core shapes (the 64-core ones on a non-default 16×4 mesh).
// Benchmarks run serial or LLP here: their measured-selection compiles
// (15-20 ms each) would make the steady phase's p99 a count of how many
// of them a seed happens to draw.
func fleetUniverse() *universe {
	u := &universe{name: "fleet-zipf"}
	benches := workload.Names()
	strategies := []string{"hybrid", "llp", "ilp", "serial"}
	for i := 0; i < fleetCatalogSize; i++ {
		var req *spec.JobRequest
		switch i % 8 {
		case 0:
			req = benchJob(benches[(i/8)%len(benches)], []string{"serial", "llp"}[(i/200)%2], 4)
		case 1, 2, 3, 4:
			req = &spec.JobRequest{Program: &spec.ProgramSpec{Kind: spec.KindKernels, Name: fmt.Sprintf("fz%04d", i), Kernels: []spec.KernelSpec{
				{Kind: "doall-map", Name: "m", N: int64(64 + 32*(i%7)), Work: 2 + i%3},
				{Kind: "serial-chain", Name: "c", N: int64(16 + 8*(i%5))}}},
				Strategy: strategies[(i/8)%len(strategies)], Cores: 4}
		case 5:
			req = sourceJob(fmt.Sprintf("fs%04d", i), lang.RandomSource(int64(1_000_000+i)), 4)
		case 6:
			req = &spec.JobRequest{Program: &spec.ProgramSpec{Kind: spec.KindKernels, Name: fmt.Sprintf("ft%04d", i), Kernels: []spec.KernelSpec{
				{Kind: "doall-reduce", Name: "r", N: int64(64 + 16*(i%9))}, {Kind: "serial-chain", Name: "c", N: 24}}},
				Strategy: "hybrid", Cores: 4, Trace: true}
		case 7:
			wide := []int{16, 32, 64}[(i/8)%3]
			req = &spec.JobRequest{Program: &spec.ProgramSpec{Kind: spec.KindKernels, Name: fmt.Sprintf("fw%04d", i), Kernels: []spec.KernelSpec{
				{Kind: "doall-map", Name: "m", N: int64(256 + 64*(i%4)), Work: 2}}},
				Strategy: strategies[(i/24)%2], Cores: wide}
			if wide == 64 {
				req.Machine.MeshCols = 16
			}
		}
		u.add(req)
	}
	return u
}

// jobOutput is the part of a job response the expectations pin.
type jobOutput struct {
	TotalCycles int64            `json:"total_cycles"`
	Spawns      int64            `json:"spawns"`
	TMConflicts int64            `json:"tm_conflicts"`
	Stalls      map[string]int64 `json:"stalls"`
	Mem         server.MemStats  `json:"mem"`
}

// digest summarises a response's simulated outputs: total cycles, the
// stall cycles of each kind, spawns, TM conflicts and the memory counters.
func (o *jobOutput) digest() string {
	kinds := make([]string, 0, len(o.Stalls))
	for k := range o.Stalls {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d spawns=%d tm=%d", o.TotalCycles, o.Spawns, o.TMConflicts)
	for _, k := range kinds {
		fmt.Fprintf(&b, " %s=%d", k, o.Stalls[k])
	}
	m := o.Mem
	fmt.Fprintf(&b, " mem=%d,%d,%d,%d,%d", m.L2Hits, m.L2Misses, m.C2CTransfers, m.Invalidations, m.Writebacks)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}

// poster sends jobs over HTTP.
type poster struct{ c *http.Client }

func newPoster(conns int) *poster {
	return &poster{c: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}}}
}

func (p *poster) close() { p.c.CloseIdleConnections() }

// post sends one job body and checks the response against want (the
// recorded digest); a 200 with different outputs is a mismatch.
func (p *poster) post(url string, body []byte, want string) outcome {
	resp, err := p.c.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return outcome{}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return outcome{status: resp.StatusCode}
	}
	var out jobOutput
	if err := json.Unmarshal(b, &out); err != nil {
		return outcome{status: resp.StatusCode, mismatch: true}
	}
	ok := out.digest() == want
	return outcome{ok: ok, mismatch: !ok, status: resp.StatusCode, cycles: out.TotalCycles}
}
