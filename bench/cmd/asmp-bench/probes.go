package main

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"time"

	"asmp/internal/core"
	"asmp/internal/cpu"
	"asmp/internal/digest"
	"asmp/internal/figures"
	"asmp/internal/report"
	"asmp/internal/resultcache"
	"asmp/internal/sched"
	"asmp/internal/server"
	"asmp/internal/sim"
	"asmp/internal/simtime"
	"asmp/internal/trace"
	"asmp/internal/workload"
	_ "asmp/internal/workload/h264"
	_ "asmp/internal/workload/jappserver"
	_ "asmp/internal/workload/jbb"
	_ "asmp/internal/workload/omp"
	_ "asmp/internal/workload/pmake"
	_ "asmp/internal/workload/tpch"
	_ "asmp/internal/workload/web"
	"asmp/internal/xrand"
)

// The traced run's layer probes. Each times calls into one layer's
// public functions from here, in this process (or, for cli and shard,
// through the built CLIs), and records the unit costs and counts the
// end-to-end numbers are made of. Which end-to-end metric each should
// move, on which workload, is tabled in README.md.

// probe measures one layer.
type probe struct {
	name string
	run  func(b *bench, m map[string]float64, parent int) error
}

var probes = []probe{
	{"host", func(_ *bench, m map[string]float64, _ int) error {
		m["host.calib_ms"] = calibrate()
		return nil
	}},
	{"engine", probeEngine},
	{"cells", probeCells},
	{"figures", probeFigures},
	{"memo", probeMemo},
	{"resultcache", probeCache},
	{"journal", probeJournal},
	{"cli", probeCLI},
	{"server", probeServer},
	{"shard", probeShard},
}

// probeLayers runs every probe and returns the per-layer metrics (all
// but trace.op_p50_ms, which the traced op loop supplies).
func (b *bench) probeLayers(parent int) (map[string]float64, error) {
	core.SetDefaultWorkers(2)
	defer core.SetResultCache(nil)
	defer core.ResetMemo()
	m := map[string]float64{}
	for _, p := range probes {
		id, end := b.spans.begin("probe", p.name, parent, 0, nil)
		err := p.run(b, m, id)
		end()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
	}
	return m, nil
}

// sink keeps each timed loop's result live so the compiler cannot
// discard the work being timed.
var sink uint64

// nsPerOp runs fn(n) five times and returns the median cost of one of
// its n iterations, in nanoseconds.
func nsPerOp(n int, fn func(n int) uint64) float64 {
	ns := make([]float64, 5)
	for i := range ns {
		start := time.Now() //asmp:allow walltime benchmark timing
		sink ^= fn(n)
		ns[i] = float64(time.Since(start)) / float64(n) //asmp:allow walltime benchmark timing
	}
	return median(ns)
}

// timeUs times one call in microseconds.
func timeUs(fn func()) float64 {
	start := time.Now() //asmp:allow walltime benchmark timing
	fn()
	return float64(time.Since(start)) / float64(time.Microsecond) //asmp:allow walltime benchmark timing
}

type nopHandler struct{}

func (nopHandler) HandleEvent(int, any) {}

func probeEngine(b *bench, m map[string]float64, _ int) error {
	// One ScheduleCall plus one Step with about 64 events pending, the
	// queue depth of a busy 4-core run.
	m["simtime.push_pop_ns"] = nsPerOp(200_000, func(n int) uint64 {
		var q simtime.Queue
		r := xrand.New(b.seed)
		delays := make([]simtime.Duration, 1024)
		for i := range delays {
			delays[i] = simtime.Duration(r.Float64())
		}
		for i := 0; i < 64; i++ {
			q.AfterCall(delays[i], nopHandler{}, 0, nil)
		}
		for i := 0; i < n; i++ {
			q.AfterCall(delays[i&1023], nopHandler{}, 0, nil)
			q.Step()
		}
		return uint64(q.Len())
	})
	// One Sleep: proc to kernel and back.
	m["sim.handoff_ns"] = nsPerOp(100_000, func(n int) uint64 {
		e := sim.NewEnv(b.seed)
		e.Go("sleeper", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(simtime.Microsecond)
			}
		})
		events := e.Run()
		e.Close()
		return uint64(events)
	})
	m["sim.spawn_exit_ns"] = nsPerOp(20_000, func(n int) uint64 {
		e := sim.NewEnv(b.seed)
		events := 0
		for i := 0; i < n; i++ {
			e.Go("trivial", func(*sim.Proc) {})
			events += e.Run()
		}
		e.Close()
		return uint64(events)
	})
	m["digest.fold_ns"] = nsPerOp(500_000, func(n int) uint64 {
		h := digest.New()
		ev := trace.Event{Kind: trace.Dispatch, Core: 1, From: -1, Proc: 3, ProcName: "worker"}
		for i := 0; i < n; i++ {
			ev.At = simtime.Time(i)
			h.Event(ev)
		}
		return uint64(h.Sum())
	})
	m["xrand.exp_ns"] = nsPerOp(1_000_000, func(n int) uint64 {
		r := xrand.New(b.seed)
		s := 0.0
		for i := 0; i < n; i++ {
			s += r.Exp(1)
		}
		return math.Float64bits(s)
	})
	return nil
}

// countTracer counts scheduler events.
type countTracer struct{ n int }

func (c *countTracer) Record(trace.Event) { c.n++ }

// cellConfig and cellPolicy place every probed cell on the paper's most
// placement-sensitive machine.
var (
	cellConfig = cpu.MustParseConfig("2f-2s/8")
	cellPolicy = sched.PolicyNaive
)

func probeCells(b *bench, m map[string]float64, parent int) error {
	opt := sched.Defaults(cellPolicy)
	for _, name := range cellWorkloads {
		w, err := workload.New(name)
		if err != nil {
			return err
		}
		_, end := b.spans.begin("cell", name, parent, 0, nil)
		host := make([]float64, 3)
		events := 0
		for i := range host {
			ct := &countTracer{}
			// A tracer makes the cell non-memoizable, so every repeat
			// simulates.
			spec := core.RunSpec{Workload: w, Config: cellConfig, Sched: opt, Seed: b.seed, Tracer: ct}
			start := time.Now() //asmp:allow walltime benchmark timing
			_, err = core.ExecuteSafe(spec)
			host[i] = millis(time.Since(start)) //asmp:allow walltime benchmark timing
			if err != nil {
				end()
				return fmt.Errorf("%s cell: %w", name, err)
			}
			events = ct.n
		}
		// The same cell replayed on a bare platform, to count every
		// engine event (the scheduler's plus the workload's own).
		pl := workload.NewPlatform(cellConfig, opt, b.seed)
		w.Run(pl)
		engine := pl.Env.Events()
		pl.Close()
		end()
		prefix := "cell." + name + "."
		m[prefix+"host_ms"] = median(host)
		m[prefix+"sched_events"] = float64(events)
		m[prefix+"engine_events"] = float64(engine)
		m[prefix+"ns_per_event"] = median(host) * 1e6 / float64(engine)
	}
	return nil
}

// runFigures regenerates traceFigures in CLI order, recording each
// figure's time in times when it is non-nil.
func (b *bench) runFigures(parent int, times map[string]float64) ([]*report.Table, error) {
	opt := figures.Options{Quick: true, Seed: b.seed}
	var tables []*report.Table
	for _, id := range traceFigures {
		f, ok := figures.Get(id)
		if !ok {
			return nil, fmt.Errorf("figure %s is not registered", id)
		}
		_, end := b.spans.begin("figure", id, parent, 0, nil)
		start := time.Now() //asmp:allow walltime benchmark timing
		ts := f.Run(opt)
		d := time.Since(start) //asmp:allow walltime benchmark timing
		end()
		if times != nil {
			times["fig."+id+".s"] = d.Seconds()
		}
		tables = append(tables, ts...)
	}
	return tables, nil
}

func probeFigures(b *bench, m map[string]float64, parent int) error {
	core.SetResultCache(nil)
	core.ResetMemo()
	tables, err := b.runFigures(parent, m)
	if err != nil {
		return err
	}
	ms := core.MemoStats()
	m["core.cells_simulated"] = float64(ms.Misses)
	m["core.memo_hits"] = float64(ms.Hits)
	m["core.memo_hit_frac"] = float64(ms.Hits) / float64(ms.Hits+ms.Misses)

	render := make([]float64, 10)
	for i := range render {
		render[i] = timeUs(func() {
			for _, t := range tables {
				sink += uint64(len(t.String()))
			}
		}) / 1000
	}
	m["report.render_ms"] = median(render)

	// The same figures through a fresh disk cache: once to publish,
	// then with the memo emptied, so every cell is a verified disk read.
	dir, err := b.newDir("figure-cache")
	if err != nil {
		return err
	}
	if err := core.AttachResultCache(dir, 0); err != nil {
		return err
	}
	defer core.SetResultCache(nil)
	for pass := 0; pass < 2; pass++ {
		core.ResetMemo()
		if _, err := b.runFigures(parent, nil); err != nil {
			return err
		}
	}
	d := core.MemoStats().Disk
	if d.Refused > 0 {
		return fmt.Errorf("the warm figure pass refused %d cache entries", d.Refused)
	}
	m["resultcache.warm_hits"] = float64(d.Hits)
	return nil
}

// tpchSpec is the memoizable cell the harness probes reuse.
func tpchSpec(seed uint64) (core.RunSpec, error) {
	w, err := workload.New("tpch")
	if err != nil {
		return core.RunSpec{}, err
	}
	return core.RunSpec{Workload: w, Config: cellConfig, Sched: sched.Defaults(cellPolicy), Seed: seed}, nil
}

func probeMemo(b *bench, m map[string]float64, _ int) error {
	core.SetResultCache(nil)
	core.ResetMemo()
	spec, err := tpchSpec(b.seed)
	if err != nil {
		return err
	}
	if _, err := core.ExecuteSafe(spec); err != nil {
		return err
	}
	const n = 20_000
	m["core.memo_hit_us"] = nsPerOp(n, func(n int) uint64 {
		var x uint64
		for i := 0; i < n; i++ {
			res, _ := core.ExecuteSafe(spec)
			x ^= uint64(res.Digest)
		}
		return x
	}) / 1000
	if hits := core.MemoStats().Hits; hits < 5*n {
		return fmt.Errorf("only %d of %d repeats were memo hits", hits, 5*n)
	}
	return nil
}

func probeCache(b *bench, m map[string]float64, _ int) error {
	dir, err := b.newDir("unit-cache")
	if err != nil {
		return err
	}
	c, err := resultcache.Open(dir, 0)
	if err != nil {
		return err
	}
	spec, err := tpchSpec(b.seed)
	if err != nil {
		return err
	}
	// A real Result, so hits pass the digest refold.
	res, err := core.ExecuteSafe(spec)
	if err != nil {
		return err
	}
	const n = 200
	keys := make([]resultcache.Key, n)
	absent := make([]resultcache.Key, n)
	for i := range keys {
		keys[i] = resultcache.KeyOf(fmt.Sprintf("asmp-bench/%d/%d", b.seed, i))
		absent[i] = resultcache.KeyOf(fmt.Sprintf("asmp-bench/absent/%d/%d", b.seed, i))
	}
	put := make([]float64, n)
	for i, k := range keys {
		put[i] = timeUs(func() { c.Put(k, res) })
	}
	if st := c.Stats(); st.Stored != n {
		return fmt.Errorf("stored %d of %d entries (%d errors)", st.Stored, n, st.StoreErrors)
	}
	hit := make([]float64, n)
	miss := make([]float64, n)
	var lost int
	for i := range keys {
		hit[i] = timeUs(func() {
			if got, ok := c.Get(keys[i]); !ok || got.Digest != res.Digest {
				lost++
			}
		})
		miss[i] = timeUs(func() {
			if _, ok := c.Get(absent[i]); ok {
				lost++
			}
		})
	}
	if lost > 0 {
		return fmt.Errorf("%d lookups returned the wrong outcome", lost)
	}
	m["resultcache.put_us"] = median(put)
	m["resultcache.get_hit_us"] = median(hit)
	m["resultcache.get_miss_us"] = median(miss)
	return nil
}

func probeCLI(b *bench, m map[string]float64, _ int) error {
	ms := make([]float64, 10)
	for i := range ms {
		c := b.run("asmp-run", "-list")
		if c.err != nil {
			return c.err
		}
		ms[i] = millis(c.wall)
	}
	m["cli.startup_ms"] = median(ms)
	return nil
}

// probeServer drives server.Handler in process through httptest: fresh
// TPC-H cells, memo repeats, and a burst of identical requests that
// must share one execution.
func probeServer(b *bench, m map[string]float64, _ int) error {
	core.SetResultCache(nil)
	core.ResetMemo()
	srv := server.New(server.Options{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		srv.Drain()
		ts.Close()
	}()
	d := &daemon{base: ts.URL, client: ts.Client()}
	timed := func(c cell) (float64, error) {
		var status int
		var err error
		us := timeUs(func() { status, _, err = d.post(b.ctx, c) })
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("%+v answered %d", c, status)
		}
		return us, err
	}
	tpch := func(seed uint64) cell {
		return cell{Workload: "tpch", Config: cellConfig.String(), Policy: cellPolicy.String(), Seed: seed}
	}
	fresh := make([]float64, 20)
	for i := range fresh {
		us, err := timed(tpch(b.seed<<32 | 1<<31 | uint64(i)))
		if err != nil {
			return err
		}
		fresh[i] = us / 1000
	}
	if _, err := timed(tpch(b.seed)); err != nil {
		return err
	}
	repeat := make([]float64, 300)
	for i := range repeat {
		us, err := timed(tpch(b.seed))
		if err != nil {
			return err
		}
		repeat[i] = us
	}
	m["server.fresh_tpch_ms"] = median(fresh)
	m["server.repeat_us"] = median(repeat)

	// A long cell, so all four requests arrive while it is in flight.
	heavy := cell{Workload: "specjbb", Config: "4f-0s", Policy: sched.PolicyAsymmetryAware.String(), Seed: b.seed}
	before := srv.StatsSnapshot().Coalesced
	errs := make([]error, 4)
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			_, errs[i] = timed(heavy)
		}(i)
	}
	close(gate)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	m["server.coalesced"] = float64(srv.StatsSnapshot().Coalesced - before)
	return nil
}

// probeShard times the sweep-sharded experiment through the CLI and in
// process; the difference is what process sharding costs.
func probeShard(b *bench, m map[string]float64, parent int) error {
	sharded := make([]float64, 3)
	inproc := make([]float64, 3)
	for i := range sharded {
		_, end := b.spans.begin("sweep", "asmp-sweep -shards 2", parent, 0, nil)
		c, _, err := b.shardedSweep()
		end()
		if err = errors.Join(err, c.err); err != nil {
			return err
		}
		sharded[i] = c.wall.Seconds()
		dir, err := b.newDir("inproc-sweep")
		if err != nil {
			return err
		}
		_, end = b.spans.begin("sweep", "in-process sweep", parent, 0, nil)
		d, err := b.inprocSweep(filepath.Join(dir, "sweep.jsonl"))
		end()
		if err != nil {
			return err
		}
		inproc[i] = d.Seconds()
	}
	m["sweep.sharded_s"] = median(sharded)
	m["sweep.inproc_s"] = median(inproc)
	m["shard.overhead_s"] = median(sharded) - median(inproc)
	return nil
}
