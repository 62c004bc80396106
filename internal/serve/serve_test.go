package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"invisispec/internal/campaign"
	"invisispec/internal/config"
	"invisispec/internal/engine"
	"invisispec/internal/runner"
)

// smallSweep is the 3-cell matrix the tests submit: tiny budget, one
// workload, three defenses, TSO only.
func smallSweep() JobRequest {
	return JobRequest{
		Type:        TypeSweep,
		Name:        "t",
		Workloads:   []string{"bzip2"},
		Defenses:    []string{"Base", "Fe-Sp", "IS-Sp"},
		Consistency: []string{"TSO"},
		Warmup:      500,
		Measure:     2000,
	}
}

// referenceSweep assembles the same artifact the server should produce,
// with campaign.Sweep over the request's matrix (the path cmd/benchtable
// takes) and no serve-layer machinery at all: no memo store, no compute
// slots, no HTTP.
func referenceSweep(t *testing.T, req JobRequest) []byte {
	t.Helper()
	if err := req.normalize(); err != nil {
		t.Fatalf("normalize: %v", err)
	}
	defs, err := parseDefenseList(req.Defenses)
	if err != nil {
		t.Fatal(err)
	}
	if defs == nil {
		defs = config.AllDefenses()
	}
	cms, err := config.ParseConsistencies(req.Consistency)
	if err != nil {
		t.Fatal(err)
	}
	kernel, err := engine.ParseKernel(req.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	jobs := runner.Matrix(req.Workloads, req.Parsec, cms, defs, req.Seeds, req.Warmup, req.Measure)
	_, b, err := campaign.Sweep(context.Background(), req.Name, jobs, kernel, campaign.Options{Workers: 2}, nil)
	if err != nil {
		t.Fatalf("reference sweep: %v", err)
	}
	var buf bytes.Buffer
	if err := runner.WriteBenchJSON(&buf, b); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestServer(t *testing.T, mutate func(*Options)) (*Server, *httptest.Server) {
	t.Helper()
	opts := Options{Workers: 2, CacheDir: t.TempDir()}
	if mutate != nil {
		mutate(&opts)
	}
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, req JobRequest) jobStatus {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, b)
	}
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	return st
}

func getStatus(t *testing.T, ts *httptest.Server, id string) jobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	defer resp.Body.Close()
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding status: %v", err)
	}
	return st
}

// waitTerminal polls until the job leaves pending/running.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		switch st.State {
		case StateDone, StateFailed, StateInterrupted:
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return jobStatus{}
}

func fetch(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	return resp.StatusCode, b
}

// TestSweepByteIdentityAndCache is the acceptance spine: an HTTP-fetched
// sweep artifact is byte-identical to the same sweep assembled directly, and
// a repeat submission is served entirely from cache.
func TestSweepByteIdentityAndCache(t *testing.T) {
	want := referenceSweep(t, smallSweep())
	_, ts := newTestServer(t, nil)

	st := submit(t, ts, smallSweep())
	st = waitTerminal(t, ts, st.ID)
	if st.State != StateDone {
		t.Fatalf("job state %s (error %q)", st.State, st.Error)
	}
	if st.Progress.Total != 3 || st.Progress.Completed != 3 {
		t.Errorf("progress %d/%d, want 3/3", st.Progress.Completed, st.Progress.Total)
	}
	if st.Cache.Misses != 3 || st.Cache.Hits != 0 {
		t.Errorf("fresh run cache hits/misses = %d/%d, want 0/3", st.Cache.Hits, st.Cache.Misses)
	}
	code, got := fetch(t, ts, "/api/v1/jobs/"+st.ID+"/artifact")
	if code != http.StatusOK {
		t.Fatalf("artifact status %d", code)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("HTTP artifact differs from direct assembly:\nhttp: %d bytes\nref:  %d bytes", len(got), len(want))
	}

	// Repeat submission: every cell must come from cache, byte-identically,
	// without re-running a single simulation.
	st2 := submit(t, ts, smallSweep())
	st2 = waitTerminal(t, ts, st2.ID)
	if st2.State != StateDone {
		t.Fatalf("repeat job state %s (error %q)", st2.State, st2.Error)
	}
	if st2.Cache.Misses != 0 || st2.Cache.Hits != 3 {
		t.Errorf("repeat cache hits/misses = %d/%d, want 3/0", st2.Cache.Hits, st2.Cache.Misses)
	}
	_, got2 := fetch(t, ts, "/api/v1/jobs/"+st2.ID+"/artifact")
	if !bytes.Equal(got2, want) {
		t.Error("cached artifact differs from fresh artifact")
	}

	// The cache activity is observable in /metrics.
	var m MetricsSnapshot
	_, mb := fetch(t, ts, "/metrics")
	if err := json.Unmarshal(mb, &m); err != nil {
		t.Fatalf("decoding metrics: %v", err)
	}
	if m.Cache.Hits < 3 || m.Cache.Misses != 3 {
		t.Errorf("store hits/misses = %d/%d, want >=3/3", m.Cache.Hits, m.Cache.Misses)
	}
}

// TestConcurrentIdenticalSubmissions: two identical jobs racing each other
// execute every cell exactly once between them (store-level singleflight).
func TestConcurrentIdenticalSubmissions(t *testing.T) {
	s, ts := newTestServer(t, nil)
	var ids [2]string
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i] = submit(t, ts, smallSweep()).ID
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		if st := waitTerminal(t, ts, id); st.State != StateDone {
			t.Fatalf("job %s state %s (error %q)", id, st.State, st.Error)
		}
	}
	stats := s.store.Stats()
	if stats.Misses != 3 {
		t.Errorf("store misses = %d, want 3 (each cell computed once)", stats.Misses)
	}
	// Each cell resolved twice: one miss (the leader) and one hit — either
	// a flight join or, if the jobs didn't overlap, a plain cache hit.
	if stats.Hits != 3 {
		t.Errorf("store hits = %d, want 3 (each cell resolved twice)", stats.Hits)
	}
}

// TestDrainMidJob: a drain mid-job lets in-flight cells finish and cache,
// refuses the rest, marks the job interrupted, refuses new submissions with
// 503 — and a new server over the same cache dir re-runs only the refused
// cells.
func TestDrainMidJob(t *testing.T) {
	cacheDir := ""
	drainErr := make(chan error, 1)
	var s *Server
	computes := 0
	s, ts := newTestServer(t, func(o *Options) {
		o.Workers = 1 // sequential cells, deterministic refusal point
		cacheDir = o.CacheDir
	})
	s.testHook = func(cell string) {
		computes++
		if computes == 2 {
			go func() { drainErr <- s.Drain(context.Background()) }()
			for !s.isDraining() {
				time.Sleep(time.Millisecond)
			}
		}
	}

	st := submit(t, ts, smallSweep())
	st = waitTerminal(t, ts, st.ID)
	if st.State != StateInterrupted {
		t.Fatalf("job state %s, want interrupted (error %q)", st.State, st.Error)
	}
	if code, _ := fetch(t, ts, "/api/v1/jobs/"+st.ID+"/artifact"); code != http.StatusConflict {
		t.Errorf("artifact for interrupted job: status %d, want 409", code)
	}

	// Submissions during/after the drain are refused.
	body, _ := json.Marshal(smallSweep())
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: status %d, want 503", resp.StatusCode)
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("Drain: %v", err)
	}

	// A new server over the same cache re-runs only the refused cell: the
	// two cells that completed before/during the drain are hits.
	s2, ts2 := newTestServer(t, func(o *Options) {
		o.Workers = 1
		o.CacheDir = cacheDir
	})
	defer s2.Drain(context.Background())
	st2 := submit(t, ts2, smallSweep())
	st2 = waitTerminal(t, ts2, st2.ID)
	if st2.State != StateDone {
		t.Fatalf("resubmitted job state %s (error %q)", st2.State, st2.Error)
	}
	if st2.Cache.Hits != 2 || st2.Cache.Misses != 1 {
		t.Errorf("resubmission hits/misses = %d/%d, want 2/1", st2.Cache.Hits, st2.Cache.Misses)
	}
	_, got := fetch(t, ts2, "/api/v1/jobs/"+st2.ID+"/artifact")
	if want := referenceSweep(t, smallSweep()); !bytes.Equal(got, want) {
		t.Error("post-drain artifact differs from direct assembly")
	}
}

// TestLeakscanJob exercises the second job family end to end through the
// same memoized executor.
func TestLeakscanJob(t *testing.T) {
	_, ts := newTestServer(t, nil)
	req := JobRequest{Type: TypeLeakscan, Defenses: []string{"Base"}, Trials: 1}
	st := submit(t, ts, req)
	st = waitTerminal(t, ts, st.ID)
	if st.State != StateDone {
		t.Fatalf("leakscan state %s (error %q)", st.State, st.Error)
	}
	code, art := fetch(t, ts, "/api/v1/jobs/"+st.ID+"/artifact")
	if code != http.StatusOK {
		t.Fatalf("artifact status %d", code)
	}
	if !bytes.Contains(art, []byte("leakage-report")) {
		t.Errorf("artifact does not look like a leakage report: %.80s", art)
	}
	// Repeat: trials are memoized too.
	st2 := waitTerminal(t, ts, submit(t, ts, req).ID)
	if st2.Cache.Misses != 0 {
		t.Errorf("repeat leakscan misses = %d, want 0", st2.Cache.Misses)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for name, body := range map[string]string{
		"empty type":      `{}`,
		"unknown type":    `{"type":"frob"}`,
		"unknown field":   `{"type":"sweep","frobnicate":1}`,
		"bad defense":     `{"type":"sweep","defenses":["NoSuch"]}`,
		"bad consistency": `{"type":"sweep","consistency":["XC"]}`,
		"bad kernel":      `{"type":"sweep","kernel":"warp"}`,
		"bad corpus":      `{"type":"leakscan","corpus":"giant"}`,
		"malformed":       `{"type":`,
	} {
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestEndpoints covers the remaining API and dashboard surface against a
// finished job.
func TestEndpoints(t *testing.T) {
	_, ts := newTestServer(t, func(o *Options) {
		o.Baseline = "../../BENCH_baseline.json"
		var sb strings.Builder
		o.LogWriter = &sb
	})
	st := submit(t, ts, smallSweep())
	st = waitTerminal(t, ts, st.ID)
	if st.State != StateDone {
		t.Fatalf("job state %s (error %q)", st.State, st.Error)
	}

	if code, _ := fetch(t, ts, "/api/v1/jobs/nope"); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", code)
	}
	if code, b := fetch(t, ts, "/healthz"); code != http.StatusOK || !bytes.Contains(b, []byte("ok")) {
		t.Errorf("healthz: %d %s", code, b)
	}

	// The sweep matrix differs from the committed full-suite baseline, so
	// the verdict exists (baseline configured) and reports its checks.
	code, vb := fetch(t, ts, "/api/v1/jobs/"+st.ID+"/verdict")
	if code != http.StatusOK {
		t.Fatalf("verdict status %d: %s", code, vb)
	}
	var verdict runner.DiffVerdict
	if err := json.Unmarshal(vb, &verdict); err != nil {
		t.Fatalf("decoding verdict: %v", err)
	}
	if verdict.Schema != runner.DiffSchema {
		t.Errorf("verdict schema %q", verdict.Schema)
	}

	// Job listing.
	code, lb := fetch(t, ts, "/api/v1/jobs")
	if code != http.StatusOK || !bytes.Contains(lb, []byte(st.ID)) {
		t.Errorf("list: %d, contains job: %v", code, bytes.Contains(lb, []byte(st.ID)))
	}

	// Dashboard pages.
	if code, b := fetch(t, ts, "/"); code != http.StatusOK || !bytes.Contains(b, []byte(st.ID)) {
		t.Errorf("dashboard index: %d, job visible: %v", code, bytes.Contains(b, []byte(st.ID)))
	}
	code, jb := fetch(t, ts, "/jobs/"+st.ID)
	if code != http.StatusOK || !bytes.Contains(jb, []byte("Normalized execution time")) {
		t.Errorf("job page: %d, has matrix: %v", code, bytes.Contains(jb, []byte("Normalized execution time")))
	}
	cellKey := fmt.Sprintf("bzip2/Base/TSO/seed0")
	code, db := fetch(t, ts, "/jobs/"+st.ID+"?cell="+cellKey)
	if code != http.StatusOK || !bytes.Contains(db, []byte("Cell "+cellKey)) {
		t.Errorf("drilldown: %d, has cell pane: %v", code, bytes.Contains(db, []byte("Cell "+cellKey)))
	}
}
