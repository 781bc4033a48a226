package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"voltron/internal/server"
)

// The expectations were recorded with -record at the commit that added
// this benchmark: the figures text and, for every job of every universe,
// the digest of its simulated outputs.
//
//go:embed expect
var expectFS embed.FS

// expectations are the recorded outputs a run is checked against.
type expectations struct {
	figures string
	digests map[string][]string // universe name -> digest per job index
}

// expectFile is the on-disk form of one universe's expectations.
type expectFile struct {
	Universe string   `json:"universe"`
	Digests  []string `json:"digests"`
}

func loadExpectations() (*expectations, error) {
	fig, err := expectFS.ReadFile("expect/figures.txt")
	if err != nil {
		return nil, err
	}
	e := &expectations{figures: string(fig), digests: map[string][]string{}}
	for _, name := range []string{"source-cold", "serve-sweep", "fleet-zipf"} {
		b, err := expectFS.ReadFile("expect/" + name + ".json")
		if err != nil {
			return nil, err
		}
		var f expectFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("expect/%s.json: %w", name, err)
		}
		e.digests[name] = f.Digests
	}
	return e, nil
}

// want returns the recorded digest of job i of universe u.
func (e *expectations) want(u *universe, i int) string {
	d := e.digests[u.name]
	if i < len(d) {
		return d[i]
	}
	return "" // never matches: an unrecorded job fails its check
}

// record regenerates every expectation into dir by running the figures
// once and every universe job once through an in-process replica.
func record(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var fig strings.Builder
	s, err := coldSuite(runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	if err := regenerate(s, &fig, nil); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "figures.txt"), []byte(fig.String()), 0o644); err != nil {
		return err
	}
	src, err := sourceUniverse()
	if err != nil {
		return err
	}
	sweep, _, err := sweepUniverse()
	if err != nil {
		return err
	}
	for _, u := range []*universe{src, sweep, fleetUniverse()} {
		d, err := recordUniverse(u)
		if err != nil {
			return err
		}
		b, err := json.MarshalIndent(expectFile{Universe: u.name, Digests: d}, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, u.name+".json"), append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func recordUniverse(u *universe) ([]string, error) {
	srv := server.New(server.Config{ArtifactEntries: 1 << 14, CacheEntries: 1})
	h := srv.Handler()
	out := make([]string, len(u.body))
	errs := make([]error, len(u.body))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(u.body); i += workers {
				rec := httptest.NewRecorder()
				req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(u.body[i]))
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					errs[i] = fmt.Errorf("%s job %d: status %d: %s", u.name, i, rec.Code, rec.Body.String())
					continue
				}
				var o jobOutput
				if err := json.Unmarshal(rec.Body.Bytes(), &o); err != nil {
					errs[i] = fmt.Errorf("%s job %d: %w", u.name, i, err)
					continue
				}
				out[i] = o.digest()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
