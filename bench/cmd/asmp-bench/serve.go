package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"asmp/internal/core"
	"asmp/internal/cpu"
	"asmp/internal/sched"
	"asmp/internal/workload"
	"asmp/internal/xrand"
)

const (
	// serveConns is the number of keep-alive connections the load
	// generator sends over; a request due while both are busy waits, and
	// the wait counts in its latency.
	serveConns = 2
	// hotKeys cells make up the repeated set; hotShare of all requests
	// draw from it, the rest are cells never asked for before.
	hotKeys  = 32
	hotShare = 0.5
	// warmups fresh requests during set-up open the connections and
	// warm the daemon's code paths before anything is timed; set-up then
	// asks for every hot cell once, so each measured hot request is a
	// repeat and the fresh cells alone make up the slow tail.
	warmups = 4
	// minServeWindow is the shortest load a run offers, even when the
	// traced run's probes used up most of its window.
	minServeWindow = 2 * time.Second
	// clockTicks is Linux's USER_HZ, the unit of /proc/<pid>/stat times.
	clockTicks = 100
	// spinWindow is how long before a request's due time its sender stops
	// sleeping and spins: Go timers can fire up to a millisecond late,
	// which would add the generator's own lag to every latency.
	spinWindow = 2 * time.Millisecond
	// speedSamples is how many times the calibration kernel is timed
	// right before and again right after the load. It is never timed
	// while the daemon serves: it would delay requests, and the daemon's
	// CPU use would slow it and so scale the daemon's own cost away.
	speedSamples = 5
)

// serveWorkloads are the models serve-mixed requests draw from.
var serveWorkloads = []string{"specjbb", "apache", "zeus", "tpch", "specjappserver", "pmake", "h264", "omp-swim"}

// cell is a POST /v1/run body.
type cell struct {
	Workload string `json:"workload"`
	Config   string `json:"config"`
	Policy   string `json:"policy"`
	Seed     uint64 `json:"seed"`
}

// request is one scheduled arrival.
type request struct {
	due  time.Duration // from the start of the load
	cell cell
	hot  int // index into the hot set, or -1 for a fresh cell
}

// schedule draws the open-loop load from seed: rate×window arrivals at
// independent uniform times over the window — a Poisson process
// conditioned on its count — of which exactly a (1-hotShare) share, at
// seed-drawn positions, are fresh cells and the rest repeats from a
// seed-drawn hot set. Fixing both counts keeps every run's tail made of
// the same fresh cells, so the tail does not move with how many fresh
// cells a run happened to draw.
func schedule(seed uint64, rate float64, window time.Duration) []request {
	r := xrand.New(seed)
	hot := hotSet(r)
	n := int(rate * window.Seconds())
	due := make([]float64, n)
	for i := range due {
		due[i] = r.Float64() * window.Seconds()
	}
	sort.Float64s(due)
	fresh := make([]bool, n)
	for i := 0; i < int(float64(n)*(1-hotShare)+0.5); i++ {
		fresh[i] = true
	}
	r.Shuffle(n, func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	reqs := make([]request, n)
	k := 0
	for i, t := range due {
		reqs[i].due = time.Duration(t * float64(time.Second))
		if fresh[i] {
			reqs[i].cell, reqs[i].hot = freshCell(seed, k), -1
			k++
			continue
		}
		reqs[i].hot = r.Intn(hotKeys)
		reqs[i].cell = hot[reqs[i].hot]
	}
	return reqs
}

// hotSet draws the repeated cells.
func hotSet(r *xrand.Rand) []cell {
	configs := cpu.ConfigNames()
	policies := sched.AllPolicies()
	hot := make([]cell, hotKeys)
	for i := range hot {
		hot[i] = cell{
			Workload: serveWorkloads[r.Intn(len(serveWorkloads))],
			Config:   configs[r.Intn(len(configs))],
			Policy:   policies[r.Intn(len(policies))].String(),
			Seed:     1 + uint64(r.Intn(1_000_000)),
		}
	}
	return hot
}

// freshCell is the k-th cell of a run that no request asked for before.
// Models cycle fastest and every 432 fresh cells cover each (model,
// configuration, policy) triple once, in the same order on every run, so
// runs differ in the cells' seeds but not in their mix. Seeds sit above
// 2^31, out of the hot set's range.
func freshCell(seed uint64, k int) cell {
	configs := cpu.ConfigNames()
	policies := sched.AllPolicies()
	j := (k / len(serveWorkloads)) % (len(configs) * len(policies))
	return cell{
		Workload: serveWorkloads[k%len(serveWorkloads)],
		Config:   configs[j%len(configs)],
		Policy:   policies[(j/len(configs)+j%len(configs))%len(policies)].String(),
		Seed:     seed<<32 | 1<<31 | uint64(k),
	}
}

// serve drives one asmp-serve daemon with the open-loop schedule.
type serve struct {
	d *daemon
	// warmed counts the requests set-up sent; hotBodies are the set-up's
	// answers for the hot cells, which every repeat must match.
	warmed    int
	hotBodies [][]byte
	reqs      []request
	replies   []reply
}

func (s *serve) setUp(b *bench, parent int) error {
	dir, err := b.newDir("cache")
	if err != nil {
		return err
	}
	_, end := b.spans.begin("setup", "start asmp-serve", parent, 0, nil)
	s.d, err = b.startDaemon(dir)
	end()
	if err != nil {
		return err
	}
	_, end = b.spans.begin("setup", "warm-up requests", parent, 0, nil)
	defer end()
	cells := make([]cell, warmups)
	for i := range cells {
		cells[i] = freshCell(b.seed, 1<<20+i)
	}
	cells = append(cells, hotSet(xrand.New(b.seed))...)
	s.warmed, s.hotBodies = len(cells), nil
	for i, c := range cells {
		status, body, err := s.d.post(b.ctx, c)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("warm-up request answered %d: %s", status, body)
		}
		if i >= warmups {
			s.hotBodies = append(s.hotBodies, body)
		}
	}
	return nil
}

func (s *serve) measure(b *bench, o *outcome, until time.Time, parent int) {
	window := max(time.Until(until), minServeWindow) //asmp:allow walltime benchmark timing
	s.reqs = schedule(b.seed, b.p.rate, window)
	pid := s.d.cmd.Process.Pid
	for i := 0; i < speedSamples; i++ {
		b.speed.sample(b)
	}
	cpu0, err0 := procCPU(pid)
	start := time.Now() //asmp:allow walltime benchmark timing
	s.replies = s.d.drive(b, s.reqs, parent)
	end := time.Now() //asmp:allow walltime benchmark timing
	cpu1, err1 := procCPU(pid)
	for i := 0; i < speedSamples; i++ {
		b.speed.sample(b)
	}
	if err := errors.Join(err0, err1); err != nil {
		o.checkFailed("reading asmp-serve CPU time: %v", err)
	}
	// Every request is scaled by the host speed measured around the whole
	// load, the only samples there are.
	o.cpu = append(o.cpu, timed{start, end, cpu1 - cpu0})
	late := make([]float64, 0, len(s.replies))
	for i, rep := range s.replies {
		o.attempted++
		op := timed{start, end, rep.done.Sub(rep.due)}
		o.ops = append(o.ops, op)
		if s.reqs[i].hot >= 0 {
			o.repeats = append(o.repeats, op)
		} else {
			o.fresh = append(o.fresh, op)
		}
		late = append(late, millis(rep.sent.Sub(rep.due)))
		switch {
		case rep.err != nil:
			o.opFailed(fmt.Errorf("request %d: %w", i, rep.err))
		case rep.status != http.StatusOK:
			o.opFailed(fmt.Errorf("request %d answered %d: %s", i, rep.status, rep.body))
		}
	}
	fmt.Fprintf(b.log, "asmp-bench: %d requests over %v at %.0f/s; generator late p50 %.3f ms, p90 %.3f ms, max %.3f ms\n",
		len(s.reqs), window.Round(time.Millisecond), b.p.rate, percentile(late, 50), percentile(late, 90), percentile(late, 100))
}

func (s *serve) check(b *bench, o *outcome) {
	fresh := 0
	for i, rq := range s.reqs {
		rep := s.replies[i]
		if rep.err != nil || rep.status != http.StatusOK {
			continue
		}
		if rq.hot >= 0 {
			if !bytes.Equal(rep.body, s.hotBodies[rq.hot]) {
				o.checkFailed("request %d: a repeated cell's body differs from its first answer", i)
			}
			continue
		}
		// Every tenth fresh cell is recomputed in this process; its run
		// digest must match the daemon's.
		if fresh++; (fresh-1)%10 == 0 {
			if err := verifyDigest(rq.cell, rep.body); err != nil {
				o.checkFailed("request %d: %v", i, err)
			}
		}
	}
	status, body, err := s.d.do(b.ctx, http.MethodGet, "/stats", nil)
	var st struct {
		Requests int `json:"requests"`
	}
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("answered %d", status)
	}
	if err == nil {
		err = json.Unmarshal(body, &st)
	}
	switch {
	case err != nil:
		o.checkFailed("GET /stats: %v", err)
	case st.Requests != s.warmed+len(s.reqs):
		o.checkFailed("/stats counts %d requests, %d were sent", st.Requests, s.warmed+len(s.reqs))
	}
}

func (s *serve) release(_ *bench, o *outcome) {
	if s.d == nil {
		return
	}
	// The daemon's own high-water mark, read while it runs: its exit
	// rusage would start from this benchmark's, as for the CLIs.
	hwm, herr := procHWM(s.d.cmd.Process.Pid)
	err := s.d.stop()
	if o != nil {
		o.maxRSSKB = max(o.maxRSSKB, hwm)
		if err = errors.Join(herr, err); err != nil {
			o.checkFailed("stopping asmp-serve: %v", err)
		}
	}
	s.d = nil
}

// verifyDigest recomputes c in this process and compares its run digest
// with the one in the daemon's response body.
func verifyDigest(c cell, body []byte) error {
	var resp struct {
		Digest string `json:"digest"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding the response: %w", err)
	}
	w, err := workload.New(c.Workload)
	if err != nil {
		return err
	}
	cfg, err := cpu.ParseConfig(c.Config)
	if err != nil {
		return err
	}
	pol, err := sched.ParsePolicy(c.Policy)
	if err != nil {
		return err
	}
	res, err := core.ExecuteSafe(core.RunSpec{Workload: w, Config: cfg, Sched: sched.Defaults(pol), Seed: c.Seed})
	if err != nil {
		return err
	}
	if got := res.Digest.String(); got != resp.Digest {
		return fmt.Errorf("%+v: daemon digest %s, in-process digest %s", c, resp.Digest, got)
	}
	return nil
}

// daemon is a running asmp-serve.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	client  *http.Client
	stderr  *addrWatch
	exited  chan struct{}
	waitErr error
}

// startDaemon starts asmp-serve on a free loopback port and waits until
// it is ready.
func (b *bench) startDaemon(cacheDir string) (*daemon, error) {
	cmd := b.command(filepath.Join(b.bin, "asmp-serve"), "-addr", "127.0.0.1:0", "-workers", "2", "-cache-dir", cacheDir)
	w := &addrWatch{addr: make(chan string, 1)}
	cmd.Stderr = w
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, stderr: w, exited: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	timer := time.NewTimer(20 * time.Second) //asmp:allow walltime start-up timeout
	defer timer.Stop()
	select {
	case addr := <-w.addr:
		d.base = "http://" + addr
	case <-d.exited:
		return nil, fmt.Errorf("asmp-serve exited during start-up: %w: %s", d.waitErr, w.tail())
	case <-timer.C:
		return nil, errors.Join(errors.New("asmp-serve did not report its address"), d.stop())
	}
	d.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true},
		Timeout:   time.Minute,
	}
	for i := 0; ; i++ {
		status, _, err := d.do(b.ctx, http.MethodGet, "/readyz", nil)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("GET /readyz answered %d", status)
		}
		if err == nil {
			return d, nil
		}
		if i == 200 || b.ctx.Err() != nil {
			return nil, errors.Join(fmt.Errorf("asmp-serve never became ready: %w", err), d.stop())
		}
		time.Sleep(10 * time.Millisecond) //asmp:allow walltime readiness polling
	}
}

// stop drains the daemon with SIGTERM, kills it if the drain hangs, and
// waits until it has exited.
func (d *daemon) stop() error {
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	timer := time.NewTimer(30 * time.Second) //asmp:allow walltime drain timeout
	defer timer.Stop()
	select {
	case <-d.exited:
	case <-timer.C:
		if err := d.cmd.Process.Kill(); err != nil && !errors.Is(err, os.ErrProcessDone) {
			return err
		}
		<-d.exited
		return errors.New("asmp-serve did not drain within 30s; killed")
	}
	if d.waitErr != nil {
		return fmt.Errorf("%w: %s", d.waitErr, d.stderr.tail())
	}
	return nil
}

func (d *daemon) post(ctx context.Context, c cell) (int, []byte, error) {
	body, err := json.Marshal(c)
	if err != nil {
		return 0, nil, err
	}
	return d.do(ctx, http.MethodPost, "/v1/run", body)
}

func (d *daemon) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// reply is one request's outcome. Its latency runs from the due time to
// the last response byte; sent-due is how late the generator ran.
type reply struct {
	status          int
	body            []byte
	due, sent, done time.Time
	err             error
}

// drive sends reqs open loop over serveConns connections: each sender
// takes the next request in schedule order, waits for its due time, and
// sends it. It returns once every request is answered.
func (d *daemon) drive(b *bench, reqs []request, parent int) []reply {
	replies := make([]reply, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now() //asmp:allow walltime benchmark timing
	for conn := 1; conn <= serveConns; conn++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := start.Add(reqs[i].due)
				if wait := time.Until(due) - spinWindow; wait > 0 { //asmp:allow walltime open-loop pacing
					t := time.NewTimer(wait) //asmp:allow walltime open-loop pacing
					select {
					case <-t.C:
					case <-b.ctx.Done():
						t.Stop()
					}
				}
				for time.Now().Before(due) { //asmp:allow walltime open-loop pacing
					runtime.Gosched()
				}
				sent := time.Now() //asmp:allow walltime benchmark timing
				if err := b.ctx.Err(); err != nil {
					replies[i] = reply{due: due, sent: sent, done: sent, err: err}
					continue
				}
				_, end := b.spans.begin("request", "POST /v1/run", parent, conn, map[string]any{"req": i, "hot": reqs[i].hot >= 0})
				status, body, err := d.post(b.ctx, reqs[i].cell)
				end()
				done := time.Now() //asmp:allow walltime benchmark timing
				replies[i] = reply{status: status, body: body, due: due, sent: sent, done: done, err: err}
			}
		}(conn)
	}
	wg.Wait()
	return replies
}

// procCPU reads a live process's user+system CPU time.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// procHWM reads a live process's peak resident set size, in KiB.
func procHWM(pid int) (int64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// addrWatch is asmp-serve's stderr: it keeps the output for error
// messages and reports the listening address the daemon prints.
type addrWatch struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

const listenMarker = "listening on http://"

func (w *addrWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		out := w.buf.Bytes()
		if i := bytes.Index(out, []byte(listenMarker)); i >= 0 {
			rest := out[i+len(listenMarker):]
			if j := bytes.IndexByte(rest, '\n'); j >= 0 {
				w.addr <- string(rest[:j])
				w.sent = true
			}
		}
	}
	return len(p), nil
}

func (w *addrWatch) tail() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return lastLine(w.buf.Bytes())
}
