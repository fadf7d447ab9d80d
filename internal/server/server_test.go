package server

// End-to-end tests over the real HTTP surface with real simulations:
// determinism of the bytes, reuse through the disk result cache across
// a restart (read-through, resume after drain), deadline and drain
// envelopes, and the error paths; plus unit tests of deadline
// resolution and latency accounting.
// Interleaving-sensitive machinery is covered deterministically in
// flight_test.go; the timing-dependent tests here lean on sweeps that
// take hundreds of milliseconds cold against polls of a few
// milliseconds.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"asmp/internal/core"
	"asmp/internal/cpu"
	"asmp/internal/figures"
	"asmp/internal/sched"
	"asmp/internal/workload"
)

// startServer launches a daemon over httptest. Unless drainManually is
// set, cleanup drains it (Drain must be called exactly once).
func startServer(t *testing.T, opts Options, drainManually bool) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if !drainManually {
		t.Cleanup(func() { s.Drain() })
	}
	return s, ts
}

// attachCache attaches a fresh disk result cache to core for the rest of
// the test and returns its directory. core's memo is reset first, so
// everything the test simulates is published to the new cache; calling
// core.ResetMemo between two servers then stands in for a process
// restart — the second server can reuse a cell only through the cache.
// Cleanup detaches the cache and resets the memo again, so later tests
// start without either.
func attachCache(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	core.ResetMemo()
	if err := core.AttachResultCache(dir, 0); err != nil {
		t.Fatalf("attach result cache: %v", err)
	}
	t.Cleanup(func() {
		if err := core.AttachResultCache("", 0); err != nil {
			t.Errorf("detach result cache: %v", err)
		}
		core.ResetMemo()
	})
	return dir
}

// renderFigure renders a figure directly, exactly as asmp-run does.
func renderFigure(t *testing.T, id string) (txt, csv string) {
	t.Helper()
	fig, ok := figures.Get(id)
	if !ok {
		t.Fatalf("figure %s not registered", id)
	}
	var tb, cb strings.Builder
	for _, tab := range fig.Run(figures.Options{Quick: true, Seed: 1}) {
		tb.WriteString(tab.String())
		tb.WriteByte('\n')
		cb.WriteString(tab.CSV())
	}
	return tb.String(), cb.String()
}

// postResult is a goroutine-safe POST outcome (no *testing.T involved,
// so helpers can run off the test goroutine).
type postResult struct {
	code int
	hdr  http.Header
	body []byte
	err  error
}

func post(url, body string) postResult {
	resp, err := http.Post(url, ctJSON, strings.NewReader(body))
	if err != nil {
		return postResult{err: err}
	}
	defer resp.Body.Close()
	b, rerr := io.ReadAll(resp.Body)
	return postResult{code: resp.StatusCode, hdr: resp.Header, body: b, err: rerr}
}

func postJSON(t *testing.T, url, body string) (int, http.Header, []byte) {
	t.Helper()
	r := post(url, body)
	if r.err != nil {
		t.Fatalf("POST %s: %v", url, r.err)
	}
	return r.code, r.hdr, r.body
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, b
}

// stats fetches and decodes /stats.
func stats(t *testing.T, ts *httptest.Server) Stats {
	t.Helper()
	_, b := getBody(t, ts.URL+"/stats")
	var st Stats
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatalf("stats: %v", err)
	}
	return st
}

func TestControlEndpoints(t *testing.T) {
	_, ts := startServer(t, Options{Workers: 2}, false)

	if code, b := getBody(t, ts.URL+"/healthz"); code != 200 || string(b) != "ok\n" {
		t.Fatalf("healthz = %d %q, want 200 ok", code, b)
	}
	if code, b := getBody(t, ts.URL+"/readyz"); code != 200 || string(b) != "ready\n" {
		t.Fatalf("readyz = %d %q, want 200 ready", code, b)
	}

	st := stats(t, ts)
	if st.Workers != 2 || st.QueueCapacity != 4 {
		t.Fatalf("stats workers/queueCapacity = %d/%d, want 2/4", st.Workers, st.QueueCapacity)
	}

	code, b := getBody(t, ts.URL+"/v1/workloads")
	if code != 200 || !strings.Contains(string(b), `"specjbb"`) {
		t.Fatalf("workloads = %d %q, want 200 listing specjbb", code, b)
	}
	code, b = getBody(t, ts.URL+"/v1/figures")
	if code != 200 || !strings.Contains(string(b), `"2a"`) {
		t.Fatalf("figures = %d %q, want 200 listing 2a", code, b)
	}
}

func TestRunEndpointDeterministic(t *testing.T) {
	_, ts := startServer(t, Options{Workers: 2}, false)
	req := `{"workload":"specjbb","config":"4f-0s","policy":"naive"}`

	code, _, b1 := postJSON(t, ts.URL+"/v1/run", req)
	if code != 200 {
		t.Fatalf("run = %d: %s", code, b1)
	}
	var r runResponse
	if err := json.Unmarshal(b1, &r); err != nil {
		t.Fatalf("run body %q: %v", b1, err)
	}
	if r.Digest == "" || r.Metric == "" || r.Seed != 1 {
		t.Fatalf("run response incomplete: %+v", r)
	}
	// Identical request, identical bytes (memo or not).
	if _, _, b2 := postJSON(t, ts.URL+"/v1/run", req); !bytes.Equal(b1, b2) {
		t.Fatalf("identical run requests differ:\n%s\n%s", b1, b2)
	}
}

// TestEveryWorkloadHasCellKey: POST /v1/run coalesces on core.CellKey,
// which is empty for a workload without an identity; every registered
// workload must have one, or its requests would share one flight.
func TestEveryWorkloadHasCellKey(t *testing.T) {
	for _, name := range workload.Names() {
		wl, err := workload.New(name)
		if err != nil {
			t.Fatal(err)
		}
		spec := core.RunSpec{Workload: wl, Config: cpu.StandardConfigs[0], Sched: sched.Defaults(sched.PolicyNaive), Seed: 1}
		if core.CellKey(spec) == "" {
			t.Errorf("workload %s has no cell key", name)
		}
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := startServer(t, Options{Workers: 1}, false)
	cases := []struct {
		name, method, path, body string
		status                   int
		code, msg                string
	}{
		{"unknown workload", "POST", "/v1/run", `{"workload":"nope","config":"4f-0s"}`, 400, "bad_request", "unknown workload"},
		{"bad config", "POST", "/v1/run", `{"workload":"specjbb","config":"lots"}`, 400, "bad_request", "cpu"},
		{"bad policy", "POST", "/v1/run", `{"workload":"specjbb","config":"4f-0s","policy":"psychic"}`, 400, "bad_request", "unknown policy"},
		{"unknown field", "POST", "/v1/run", `{"workload":"specjbb","config":"4f-0s","wokers":3}`, 400, "bad_request", "unknown field"},
		{"negative deadline", "POST", "/v1/run", `{"workload":"specjbb","config":"4f-0s","deadlineMs":-1}`, 400, "bad_request", "non-negative"},
		{"sweep negative runs", "POST", "/v1/sweep", `{"workload":"specjbb","runs":-1}`, 400, "bad_request", "runs"},
		{"sweep bad retries", "POST", "/v1/sweep", `{"workload":"specjbb","retries":-1}`, 400, "bad_request", "retries"},
		{"sweep bad fault", "POST", "/v1/sweep", `{"workload":"specjbb","fault":"explode@1s:0"}`, 400, "bad_request", "unknown kind"},
		{"sweep fault misfit", "POST", "/v1/sweep", `{"workload":"specjbb","configs":["4f-0s"],"fault":"offline@1s:7"}`, 400, "bad_request", "does not fit"},
		{"sweep bad timeout", "POST", "/v1/sweep", `{"workload":"specjbb","timeout":"eleven"}`, 400, "bad_request", "timeout"},
		{"unknown figure", "GET", "/v1/figure/99z", "", 404, "not_found", "unknown figure"},
		{"bad figure format", "GET", "/v1/figure/2a?format=pdf", "", 400, "bad_request", "format"},
		{"bad figure seed", "GET", "/v1/figure/2a?seed=banana", "", 400, "bad_request", "seed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var code int
			var b []byte
			if tc.method == "GET" {
				code, b = getBody(t, ts.URL+tc.path)
			} else {
				code, _, b = postJSON(t, ts.URL+tc.path, tc.body)
			}
			if code != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", code, tc.status, b)
			}
			var env errorEnvelope
			if err := json.Unmarshal(b, &env); err != nil {
				t.Fatalf("body %q is not an envelope: %v", b, err)
			}
			if env.Error.Code != tc.code || !strings.Contains(env.Error.Message, tc.msg) {
				t.Fatalf("envelope = %s/%q, want %s/*%s*", env.Error.Code, env.Error.Message, tc.code, tc.msg)
			}
		})
	}
}

func TestSweepCacheReadThrough(t *testing.T) {
	dir := attachCache(t)
	_, ts1 := startServer(t, Options{Workers: 2}, false)
	req := `{"workload":"specjbb","configs":["4f-0s"],"runs":2}`

	code, _, b1 := postJSON(t, ts1.URL+"/v1/sweep", req)
	if code != 200 {
		t.Fatalf("sweep = %d: %s", code, b1)
	}
	var resp sweepResponse
	if err := json.Unmarshal(b1, &resp); err != nil {
		t.Fatalf("sweep body: %v", err)
	}
	if len(resp.Configs) != 1 || len(resp.Configs[0].Values) != 2 {
		t.Fatalf("sweep shape = %d configs / %d values, want 1/2", len(resp.Configs), len(resp.Configs[0].Values))
	}
	if !strings.Contains(resp.Table, "max asymmetric CoV") {
		t.Fatalf("sweep table missing CoV note:\n%s", resp.Table)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.cell"))
	if len(files) != 2 {
		t.Fatalf("cache entries = %v, want exactly the sweep's two cells", files)
	}

	// A restarted server (fresh memo, same cache): byte-identical
	// answer, every cell read from the cache instead of simulated.
	core.ResetMemo()
	s2, ts2 := startServer(t, Options{Workers: 2}, false)
	_, _, b2 := postJSON(t, ts2.URL+"/v1/sweep", req)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("cache-served sweep differs:\n%s\n%s", b1, b2)
	}
	if st := s2.StatsSnapshot(); st.Cache.Hits != 2 || st.Cache.Stored != 2 {
		t.Fatalf("cache hits/stored = %d/%d, want 2/2 (both cells served from disk, none re-simulated)", st.Cache.Hits, st.Cache.Stored)
	}
}

func TestSweepDeadlineReturnsTypedTimeoutWithPartial(t *testing.T) {
	_, ts := startServer(t, Options{Workers: 2}, false)
	// A cold full-grid sweep (~hundreds of ms) against a 1ms deadline:
	// the deadline always wins. rank-policy cells are unique to this
	// test, so no other test warms them.
	req := `{"workload":"specjbb","policy":"rank","deadlineMs":1}`
	code, _, b := postJSON(t, ts.URL+"/v1/sweep", req)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", code, b)
	}
	var env errorEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatalf("body %q: %v", b, err)
	}
	if env.Error.Code != "deadline_exceeded" {
		t.Fatalf("error code = %q, want deadline_exceeded", env.Error.Code)
	}
	if env.Partial == nil {
		t.Fatal("504 carried no partial sweep")
	}
	var partial sweepResponse
	if err := json.Unmarshal(env.Partial, &partial); err != nil {
		t.Fatalf("partial %q: %v", env.Partial, err)
	}
	if partial.Cancelled == 0 {
		t.Fatalf("partial reports no cancelled runs: %+v", partial)
	}
}

func TestConcurrentIdenticalSweepsCoalesce(t *testing.T) {
	core.ResetMemo()
	s, ts := startServer(t, Options{Workers: 1, QueueDepth: 8}, false)

	// Occupy the only worker with a cold full-grid sweep (aware-policy
	// cells are unique to this test, and the memo is reset so a repeated
	// run finds them cold too), so the duplicates below all arrive while
	// their shared flight is still pending.
	blockerDone := make(chan postResult, 1)
	go func() {
		blockerDone <- post(ts.URL+"/v1/sweep", `{"workload":"specjbb","policy":"aware"}`)
	}()
	for s.StatsSnapshot().Requests < 1 {
		time.Sleep(time.Millisecond)
	}

	const n = 4
	req := `{"workload":"specjbb","configs":["4f-0s"],"runs":1}`
	results := make(chan postResult, n)
	for i := 0; i < n; i++ {
		go func() {
			results <- post(ts.URL+"/v1/sweep", req)
		}()
	}
	var first []byte
	for i := 0; i < n; i++ {
		r := <-results
		if r.err != nil || r.code != 200 {
			t.Fatalf("duplicate sweep = %d (err %v): %s", r.code, r.err, r.body)
		}
		if first == nil {
			first = r.body
		} else if !bytes.Equal(first, r.body) {
			t.Fatalf("coalesced sweeps returned different bytes:\n%s\n%s", first, r.body)
		}
	}
	if r := <-blockerDone; r.err != nil || r.code != 200 {
		t.Fatalf("blocker sweep = %d (err %v)", r.code, r.err)
	}

	if st := s.StatsSnapshot(); st.Coalesced < n-1 {
		t.Fatalf("coalesced = %d, want >= %d (the %d duplicates shared one flight)", st.Coalesced, n-1, n)
	}
}

// TestSweepSpellingsCoalesce: two bodies naming one sweep differently
// (the configs omitted, and the paper's nine listed) share one flight,
// because the key is the sweep's Identity rather than its spelling.
func TestSweepSpellingsCoalesce(t *testing.T) {
	core.ResetMemo()
	s, ts := startServer(t, Options{Workers: 1, QueueDepth: 8}, false)

	// Hold the only worker with a cold sweep (its crit-policy cells are
	// unique to this test) so the first spelling is still queued when
	// the second arrives.
	blockerDone := make(chan postResult, 1)
	go func() {
		blockerDone <- post(ts.URL+"/v1/sweep", `{"workload":"specjbb","policy":"crit","seed":21}`)
	}()
	for s.StatsSnapshot().Requests < 1 {
		time.Sleep(time.Millisecond)
	}
	var nine []string
	for _, c := range cpu.StandardConfigs {
		nine = append(nine, `"`+c.String()+`"`)
	}
	bodies := []string{
		`{"workload":"specjbb","policy":"little","runs":1}`,
		`{"workload":"specjbb","policy":"big-little","runs":1,"seed":1,"configs":[` + strings.Join(nine, ",") + `]}`,
	}
	before := s.StatsSnapshot().Coalesced
	results := make(chan postResult, len(bodies))
	for i, body := range bodies {
		go func() { results <- post(ts.URL+"/v1/sweep", body) }()
		for s.StatsSnapshot().Requests < uint64(2+i) {
			time.Sleep(time.Millisecond)
		}
	}
	var first []byte
	for range bodies {
		r := <-results
		if r.err != nil || r.code != 200 {
			t.Fatalf("sweep = %d (err %v): %s", r.code, r.err, r.body)
		}
		if first == nil {
			first = r.body
		} else if !bytes.Equal(first, r.body) {
			t.Fatalf("one sweep, two answers:\n%s\n%s", first, r.body)
		}
	}
	if r := <-blockerDone; r.err != nil || r.code != 200 {
		t.Fatalf("blocker sweep = %d (err %v)", r.code, r.err)
	}
	if got := s.StatsSnapshot().Coalesced - before; got != 1 {
		t.Fatalf("coalesced went up by %d, want 1: the two spellings ran as separate flights", got)
	}
}

func TestDrainMidSweepThenResumeByteIdentical(t *testing.T) {
	req := `{"workload":"specjbb","seed":7,"runs":3}`

	// Reference: a never-interrupted sweep on a cold memo with no cache
	// attached.
	core.ResetMemo()
	_, ts0 := startServer(t, Options{Workers: 1}, false)
	code0, _, want := postJSON(t, ts0.URL+"/v1/sweep", req)
	if code0 != 200 {
		t.Fatalf("reference sweep = %d: %s", code0, want)
	}

	// Server 1: drain lands mid-sweep (the sweep is ~600ms cold; we
	// drain as soon as the cache holds its first cell, with a 30ms
	// grace).
	attachCache(t)
	s1, ts1 := startServer(t, Options{Workers: 1, DrainTimeout: 30 * time.Millisecond}, true)
	got := make(chan postResult, 1)
	go func() {
		got <- post(ts1.URL+"/v1/sweep", req)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for core.MemoStats().Disk.Stored < 1 {
		if time.Now().After(deadline) {
			t.Fatal("cache never stored a cell; sweep did not start")
		}
		time.Sleep(time.Millisecond)
	}
	forced := s1.Drain()
	r := <-got
	if r.err != nil {
		t.Fatalf("drained sweep: %v", r.err)
	}
	if forced != 1 {
		t.Fatalf("Drain forced %d executions, want 1 (response was %d: %s)", forced, r.code, r.body)
	}
	if r.code != http.StatusServiceUnavailable {
		t.Fatalf("drained sweep status = %d, want 503 (body %s)", r.code, r.body)
	}
	var env errorEnvelope
	if err := json.Unmarshal(r.body, &env); err != nil {
		t.Fatalf("body %q: %v", r.body, err)
	}
	if env.Error.Code != "draining" || env.Partial == nil {
		t.Fatalf("envelope = %s (partial present: %t), want draining with partial", env.Error.Code, env.Partial != nil)
	}

	// Server 2, restarted on the same cache: the cells server 1
	// finished are read back from disk, and the answer is byte-identical
	// to the never-interrupted reference.
	core.ResetMemo()
	s2, ts2 := startServer(t, Options{Workers: 1}, false)
	code2, _, b2 := postJSON(t, ts2.URL+"/v1/sweep", req)
	if code2 != 200 {
		t.Fatalf("resumed sweep = %d: %s", code2, b2)
	}
	if st := s2.StatsSnapshot(); st.Cache.Hits < 1 {
		t.Fatalf("cache hits = %d, want >= 1", st.Cache.Hits)
	}
	if !bytes.Equal(b2, want) {
		t.Fatalf("resumed sweep differs from uninterrupted sweep:\n%s\n%s", b2, want)
	}
	var resumed sweepResponse
	if err := json.Unmarshal(b2, &resumed); err != nil {
		t.Fatal(err)
	}
	if resumed.Cancelled != 0 {
		t.Fatalf("resumed sweep not clean: %+v", resumed)
	}
}

func TestFigureBytesMatchDirectRender(t *testing.T) {
	// The reference is rendered cold, with no cache attached.
	core.ResetMemo()
	txt, csv := renderFigure(t, "2a")

	attachCache(t)
	_, ts1 := startServer(t, Options{Workers: 2}, false)
	code, b := getBody(t, ts1.URL+"/v1/figure/2a?quick=1")
	if code != 200 {
		t.Fatalf("figure = %d: %s", code, b)
	}
	if string(b) != txt {
		t.Fatalf("server figure bytes differ from direct render:\n--- server\n%s\n--- direct\n%s", b, txt)
	}

	// The CSV rendering, from a restarted server on the same cache: its
	// cells come back from disk.
	core.ResetMemo()
	s2, ts2 := startServer(t, Options{Workers: 2}, false)
	code, bcsv := getBody(t, ts2.URL+"/v1/figure/2a?quick=1&format=csv")
	if code != 200 || string(bcsv) != csv {
		t.Fatalf("server CSV differs from direct render (status %d)", code)
	}
	if st := s2.StatsSnapshot(); st.Cache.Hits < 1 {
		t.Fatalf("cache hits = %d, want >= 1", st.Cache.Hits)
	}
}

func TestReadyzFlipsOnDrain(t *testing.T) {
	s, ts := startServer(t, Options{Workers: 1}, true)
	if code, _ := getBody(t, ts.URL+"/readyz"); code != 200 {
		t.Fatalf("readyz before drain = %d, want 200", code)
	}
	s.Drain()
	code, b := getBody(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable || string(b) != "draining\n" {
		t.Fatalf("readyz after drain = %d %q, want 503 draining", code, b)
	}
	// Data requests now answer the typed draining envelope.
	code, _, body := postJSON(t, ts.URL+"/v1/sweep", `{"workload":"specjbb","configs":["4f-0s"],"runs":1}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("sweep during drain = %d, want 503", code)
	}
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != "draining" {
		t.Fatalf("sweep during drain envelope = %s (err %v), want draining", body, err)
	}
}

func TestShedReturns429WithRetryAfter(t *testing.T) {
	// One worker, minimal queue, worker held busy by a cold sweep: a
	// concurrent burst of distinct requests overflows the queue and at
	// least one is shed with the typed 429.
	s, ts := startServer(t, Options{Workers: 1, QueueDepth: 1}, false)
	blockerDone := make(chan postResult, 1)
	go func() {
		blockerDone <- post(ts.URL+"/v1/sweep", `{"workload":"specjbb","policy":"aware","seed":3}`)
	}()
	for s.StatsSnapshot().ActiveFlights == 0 {
		time.Sleep(time.Millisecond)
	}

	const n = 4
	results := make(chan postResult, n)
	for i := 0; i < n; i++ {
		// Distinct keys (seed varies) so none coalesce.
		body := fmt.Sprintf(`{"workload":"specjbb","configs":["4f-0s"],"runs":1,"seed":%d,"deadlineMs":30000}`, 100+i)
		go func() {
			results <- post(ts.URL+"/v1/sweep", body)
		}()
	}
	var shed429 int
	for i := 0; i < n; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("burst request: %v", r.err)
		}
		switch r.code {
		case http.StatusTooManyRequests:
			shed429++
			if r.hdr.Get("Retry-After") != "1" {
				t.Fatalf("429 without Retry-After: %v", r.hdr)
			}
			var env errorEnvelope
			if err := json.Unmarshal(r.body, &env); err != nil || env.Error.Code != "overloaded" {
				t.Fatalf("429 envelope = %s (err %v), want overloaded", r.body, err)
			}
		case http.StatusOK:
			// Fit in the queue and completed after the blocker.
		default:
			t.Fatalf("burst request = %d: %s", r.code, r.body)
		}
	}
	if shed429 == 0 {
		t.Fatalf("no request was shed (stats: %+v)", s.StatsSnapshot())
	}
	if r := <-blockerDone; r.err != nil || r.code != 200 {
		t.Fatalf("blocker sweep = %d (err %v)", r.code, r.err)
	}
	if st := s.StatsSnapshot(); st.Shed == 0 {
		t.Fatal("stats.shed = 0 after a 429")
	}
}

func TestFigureDeadlineNeverPoisonsCache(t *testing.T) {
	// The reference is rendered cold, with no cache attached. Figure 9b
	// is unique to this test, so no other test warms its cells.
	core.ResetMemo()
	txt, _ := renderFigure(t, "9b")

	attachCache(t)
	_, ts1 := startServer(t, Options{Workers: 2}, false)

	// An experiment-backed figure against a 1ms deadline: cancellation
	// lands mid-sweep and surfaces as CANCELLED table rows, not a panic.
	// The partial rendering must be discarded — never answered 200 — and
	// no cancelled cell may reach the cache.
	code, b := getBody(t, ts1.URL+"/v1/figure/9b?quick=1&deadline_ms=1")
	if code != http.StatusGatewayTimeout && code != 200 {
		t.Fatalf("short-deadline figure = %d, want 504 (or 200 if the render won the race): %s", code, b)
	}
	if code == 200 {
		t.Log("figure finished inside 1ms; the byte check below still pins the cache")
	}

	// An identical request to a restarted server on the same cache, with
	// an ample deadline, must yield the full figure, byte-identical to
	// the direct render — not a poisoned partial.
	core.ResetMemo()
	_, ts2 := startServer(t, Options{Workers: 2}, false)
	code, b = getBody(t, ts2.URL+"/v1/figure/9b?quick=1")
	if code != 200 {
		t.Fatalf("figure = %d: %s", code, b)
	}
	if string(b) != txt {
		t.Fatalf("figure after a cancelled render differs from direct render:\n--- server\n%s\n--- direct\n%s", b, txt)
	}
}

func TestResolveDeadlineCapsWithoutOverflow(t *testing.T) {
	s := &Server{opts: Options{}.withDefaults()}
	maxMs := s.opts.MaxDeadline.Milliseconds()
	cases := []struct {
		ms   int64
		want time.Duration
	}{
		{0, s.opts.DefaultDeadline},
		{1, time.Millisecond},
		{maxMs, s.opts.MaxDeadline},
		{maxMs + 1, s.opts.MaxDeadline},
		// The smallest input whose conversion to a Duration overflows.
		{math.MaxInt64/int64(time.Millisecond) + 1, s.opts.MaxDeadline},
		{math.MaxInt64, s.opts.MaxDeadline},
	}
	for _, tc := range cases {
		d, err := s.resolveDeadline(tc.ms)
		if err != nil {
			t.Fatalf("resolveDeadline(%d): %v", tc.ms, err)
		}
		if d <= 0 || d > s.opts.MaxDeadline || d != tc.want {
			t.Errorf("resolveDeadline(%d) = %v, want %v (positive, at most %v)", tc.ms, d, tc.want, s.opts.MaxDeadline)
		}
	}
}

func TestLatencyTotalKeepsSubMillisecondRequests(t *testing.T) {
	s := &Server{opts: Options{}.withDefaults()}
	for i := 0; i < 10; i++ {
		s.observeLatency(600 * time.Microsecond)
	}
	st := s.StatsSnapshot()
	if st.Latency.Count != 10 || st.Latency.TotalMs != 6 || st.Latency.MaxMs != 0 {
		t.Fatalf("latency count/totalMs/maxMs = %d/%d/%d, want 10/6/0",
			st.Latency.Count, st.Latency.TotalMs, st.Latency.MaxMs)
	}
}
