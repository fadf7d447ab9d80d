package main

// TestServeSmoke is the end-to-end exercise `make serve-smoke` runs: it
// builds the real binaries, starts the daemon, proves duplicate
// concurrent sweeps coalesce, checks a server-rendered figure is
// byte-identical to asmp-run's, SIGTERMs the daemon mid-sweep and
// verifies the drain is clean and that a daemon restarted on the same
// result cache answers from it.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// httpResult is a goroutine-safe request outcome.
type httpResult struct {
	code int
	body []byte
	err  error
}

func httpGet(url string) httpResult {
	resp, err := http.Get(url)
	if err != nil {
		return httpResult{err: err}
	}
	defer resp.Body.Close()
	b, rerr := io.ReadAll(resp.Body)
	return httpResult{code: resp.StatusCode, body: b, err: rerr}
}

func httpPost(url, body string) httpResult {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return httpResult{err: err}
	}
	defer resp.Body.Close()
	b, rerr := io.ReadAll(resp.Body)
	return httpResult{code: resp.StatusCode, body: b, err: rerr}
}

// smokeStats decodes the fields of /stats the smoke test asserts on.
type smokeStats struct {
	Coalesced     uint64 `json:"coalesced"`
	ActiveFlights int    `json:"activeFlights"`
	Cache         struct {
		Hits uint64 `json:"hits"`
	} `json:"cache"`
}

func readStats(t *testing.T, base string) smokeStats {
	t.Helper()
	r := httpGet(base + "/stats")
	if r.err != nil || r.code != 200 {
		t.Fatalf("GET /stats = %d (err %v)", r.code, r.err)
	}
	var st smokeStats
	if err := json.Unmarshal(r.body, &st); err != nil {
		t.Fatalf("stats %q: %v", r.body, err)
	}
	return st
}

// daemon is one running asmp-serve process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port

	mu     sync.Mutex
	stderr bytes.Buffer
}

func (d *daemon) stderrText() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stderr.String()
}

var listenRe = regexp.MustCompile(`listening on (http://\S+)`)

// startDaemon launches bin and waits for its listen line and readiness.
func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, args...)
	pipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.stderr.WriteString(line + "\n")
			d.mu.Unlock()
			if m := listenRe.FindStringSubmatch(line); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case d.base = <-addr:
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("daemon never printed its listen line; stderr:\n%s", d.stderrText())
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if r := httpGet(d.base + "/readyz"); r.err == nil && r.code == 200 {
			return d
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("daemon never became ready; stderr:\n%s", d.stderrText())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// sigtermAndWait sends SIGTERM and requires a clean exit within 30s.
func (d *daemon) sigtermAndWait(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited uncleanly: %v; stderr:\n%s", err, d.stderrText())
		}
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		t.Fatalf("daemon did not drain within 30s of SIGTERM; stderr:\n%s", d.stderrText())
	}
}

func TestServeSmoke(t *testing.T) {
	bins := t.TempDir()
	serveBin := filepath.Join(bins, "asmp-serve")
	runBin := filepath.Join(bins, "asmp-run")
	for dir, bin := range map[string]string{".": serveBin, "../asmp-run": runBin} {
		out, err := exec.Command("go", "build", "-o", bin, dir).CombinedOutput()
		if err != nil {
			t.Fatalf("go build %s: %v\n%s", dir, err, out)
		}
	}
	cdir := t.TempDir()

	// -workers 1 makes cell execution sequential (the full-grid sweeps
	// below take ~600ms, far above every poll and grace interval here)
	// and lets one blocker sweep hold the pool for the coalescing step.
	d := startDaemon(t, serveBin,
		"-addr", "127.0.0.1:0", "-workers", "1", "-queue", "8",
		"-drain-timeout", "100ms", "-cache-dir", cdir)

	// --- Coalescing: duplicates of a pending sweep share one flight. ---
	blocker := make(chan httpResult, 1)
	go func() {
		blocker <- httpPost(d.base+"/v1/sweep", `{"workload":"specjbb","policy":"aware"}`)
	}()
	for readStats(t, d.base).ActiveFlights == 0 {
		time.Sleep(time.Millisecond)
	}
	const n = 3
	dup := `{"workload":"specjbb","configs":["4f-0s"],"runs":1}`
	dups := make(chan httpResult, n)
	for i := 0; i < n; i++ {
		go func() { dups <- httpPost(d.base+"/v1/sweep", dup) }()
	}
	var first []byte
	for i := 0; i < n; i++ {
		r := <-dups
		if r.err != nil || r.code != 200 {
			t.Fatalf("duplicate sweep = %d (err %v): %s", r.code, r.err, r.body)
		}
		if first == nil {
			first = r.body
		} else if !bytes.Equal(first, r.body) {
			t.Fatal("coalesced duplicates returned different bytes")
		}
	}
	if r := <-blocker; r.err != nil || r.code != 200 {
		t.Fatalf("blocker sweep = %d (err %v)", r.code, r.err)
	}
	if st := readStats(t, d.base); st.Coalesced < n-1 {
		t.Fatalf("stats.coalesced = %d, want >= %d", st.Coalesced, n-1)
	}

	// --- Figure parity: server bytes == CLI bytes. ---
	figDir := t.TempDir()
	if out, err := exec.Command(runBin, "-fig", "2a", "-quick", "-out", figDir).CombinedOutput(); err != nil {
		t.Fatalf("asmp-run: %v\n%s", err, out)
	}
	cli, err := os.ReadFile(filepath.Join(figDir, "fig-2a.txt"))
	if err != nil {
		t.Fatal(err)
	}
	srv := httpGet(d.base + "/v1/figure/2a?quick=1")
	if srv.err != nil || srv.code != 200 {
		t.Fatalf("figure = %d (err %v)", srv.code, srv.err)
	}
	if !bytes.Equal(srv.body, cli) {
		t.Fatalf("server figure differs from asmp-run's:\n--- server\n%s\n--- cli\n%s", srv.body, cli)
	}

	// --- SIGTERM mid-sweep: clean drain, typed 503 to the client. ---
	cells := func() []string {
		files, err := filepath.Glob(filepath.Join(cdir, "*.cell"))
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	preexisting := len(cells())
	long := `{"workload":"specjbb","seed":9,"runs":3}`
	inflight := make(chan httpResult, 1)
	go func() { inflight <- httpPost(d.base+"/v1/sweep", long) }()
	// Wait for the new sweep to publish its first cell to the cache,
	// then interrupt: the sweep has hundreds of milliseconds of cells
	// left, far beyond the 100ms drain grace.
	deadline := time.Now().Add(30 * time.Second)
	for len(cells()) == preexisting {
		if time.Now().After(deadline) {
			t.Fatal("in-flight sweep never published a cell to the cache")
		}
		time.Sleep(time.Millisecond)
	}
	d.sigtermAndWait(t)
	r := <-inflight
	if r.err != nil {
		t.Fatalf("in-flight sweep during drain: %v", r.err)
	}
	if r.code != http.StatusServiceUnavailable || !strings.Contains(string(r.body), `"draining"`) {
		t.Fatalf("in-flight sweep during drain = %d: %s, want 503 draining", r.code, r.body)
	}

	// --- Restart on the same cache: the drained sweep's finished
	// cells are served from disk instead of re-simulated. ---
	d2 := startDaemon(t, serveBin,
		"-addr", "127.0.0.1:0", "-workers", "1", "-cache-dir", cdir)
	r1 := httpPost(d2.base+"/v1/sweep", long)
	if r1.err != nil || r1.code != 200 {
		t.Fatalf("resumed sweep = %d (err %v): %s", r1.code, r1.err, r1.body)
	}
	if st := readStats(t, d2.base); st.Cache.Hits < 1 {
		t.Fatalf("stats.cache.hits = %d, want >= 1", st.Cache.Hits)
	}
	// A second identical request answers the same bytes.
	r2 := httpPost(d2.base+"/v1/sweep", long)
	if r2.err != nil || r2.code != 200 || !bytes.Equal(r1.body, r2.body) {
		t.Fatalf("repeated sweep differs (code %d, err %v)", r2.code, r2.err)
	}
	d2.sigtermAndWait(t)
}
