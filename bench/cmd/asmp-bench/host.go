package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"
)

// hostInfo fingerprints the machine a record was measured on. Records
// are comparable only when the identity fields agree; CalibMs is kept
// beside them to show host drift between paired runs.
type hostInfo struct {
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CalibMs    float64 `json:"calib_ms"`
}

func fingerprint() hostInfo {
	return hostInfo{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CalibMs:    calibrate(),
	}
}

// identity is the part of the fingerprint two records must share.
func (h hostInfo) identity() hostInfo {
	h.CalibMs = 0
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Host-speed calibration. The benchmark's host is shared: its effective
// speed drifts by tens of percent within minutes, and by more than 2x
// under heavy contention. Each run therefore re-times a fixed
// calibration kernel — work whose code never changes with the commit
// under test — between its ops, and reports every end-to-end time scaled
// to the kernel's time on a reference host. A
// simulation slows with CPU speed and a warm regeneration with process
// start and file reads, so each workload names the kernels that track
// its ops.
//
// The kernel must not measure the code under test, or a change that
// makes an op costlier would partly scale itself away. So no kernel runs
// while an op does, and each sample runs every kernel once untimed
// first: right after an op, a first pass over the compute kernel's 8 MiB
// ran 20-40% slower than the passes after it, and how much slower
// depends on the op.

// kernel is one calibration component.
type kernel struct {
	// refMs is the component's time on the host the benchmark was
	// sized on (a 2-vCPU Xeon VM at its typical speed).
	refMs float64
	// run does the component's work and returns how long its timed part
	// took.
	run func(b *bench) (time.Duration, error)
}

var (
	// computeKernel is SHA-256 over 1 MiB then 2^16 dependent loads
	// over an 8 MiB random cycle, on two goroutines at once to sample
	// both CPUs the CLIs run on.
	computeKernel = kernel{9.0, func(*bench) (time.Duration, error) {
		return computeOnce(), nil
	}}
	// spawnKernel starts this program twice in its do-nothing shim mode:
	// fork, exec and Go runtime start-up.
	spawnKernel = kernel{5.8, func(b *bench) (time.Duration, error) {
		return timedErr(func() error {
			for i := 0; i < 2; i++ {
				if err := exec.Command(b.self, shimArg).Run(); err != nil {
					return err
				}
			}
			return nil
		})
	}}
	// readKernel reads 100 small files.
	readKernel = kernel{1.0, func(b *bench) (time.Duration, error) {
		return timedErr(func() error {
			for i := 0; i < calibFiles; i++ {
				if _, err := os.ReadFile(filepath.Join(b.calibDir, fmt.Sprint(i))); err != nil {
					return err
				}
			}
			return nil
		})
	}}
)

// timedErr times fn.
func timedErr(fn func() error) (time.Duration, error) {
	start := time.Now() //asmp:allow walltime benchmark timing
	err := fn()
	return time.Since(start), err //asmp:allow walltime benchmark timing
}

// calibFiles is the number of files readKernel reads.
const calibFiles = 100

// prepareCalibration writes the files readKernel reads.
func (b *bench) prepareCalibration() error {
	if err := os.MkdirAll(b.calibDir, 0o755); err != nil {
		return err
	}
	data := make([]byte, 1500)
	for i := range data {
		data[i] = byte(i)
	}
	for i := 0; i < calibFiles; i++ {
		if err := os.WriteFile(filepath.Join(b.calibDir, fmt.Sprint(i)), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

var (
	calibBuf = make([]byte, 1<<20)
	// calibCycle is built on first use, so the shim mode never pays
	// for (or holds) it.
	calibCycle = sync.OnceValue(func() []int32 { return buildCycle(1 << 21) })
)

// buildCycle returns a single random cycle over n slots (Sattolo's
// algorithm, driven by a fixed xorshift so every run chases the same
// cycle).
func buildCycle(n int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		idx[i], idx[j] = idx[j], idx[i]
	}
	next := make([]int32, n)
	for i := range idx {
		next[idx[i]] = idx[(i+1)%n]
	}
	return next
}

// computeOnce runs the compute kernel's work on two goroutines and
// returns their mean time.
func computeOnce() time.Duration {
	cycle := calibCycle()
	var ds [2]time.Duration
	var ends [2]int32
	var wg sync.WaitGroup
	for g := range ds {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			start := time.Now() //asmp:allow walltime benchmark timing
			sum := sha256.Sum256(calibBuf)
			p := int32(sum[0]) + int32(g)<<20
			for i := 0; i < 1<<16; i++ {
				p = cycle[p]
			}
			ends[g] = p
			ds[g] = time.Since(start) //asmp:allow walltime benchmark timing
		}(g)
	}
	wg.Wait()
	sink += uint64(ends[0] ^ ends[1])
	return (ds[0] + ds[1]) / 2
}

// calibrate returns the median of five compute-kernel runs, in
// milliseconds: the host.calib_ms that records carry.
func calibrate() float64 {
	ms := make([]float64, 5)
	for i := range ms {
		ms[i] = millis(computeOnce())
	}
	return median(ms)
}

// speedSample is one timing of a workload's calibration kernels.
type speedSample struct {
	at time.Time
	ms float64
}

// speedo samples the host's speed through a run, so every op can be
// scaled by the speed measured around it. Only the run's own goroutine
// uses it.
type speedo struct {
	kernels []kernel
	samples []speedSample
	err     error
}

// sample times the kernels now, each after one untimed run of it. A
// kernel failure is kept for err.
func (s *speedo) sample(b *bench) {
	var total time.Duration
	for _, k := range s.kernels {
		_, err := k.run(b)
		var d time.Duration
		if err == nil {
			d, err = k.run(b)
		}
		if err != nil {
			s.err = err
			return
		}
		total += d
	}
	at := time.Now() //asmp:allow walltime benchmark timing
	s.samples = append(s.samples, speedSample{at: at, ms: millis(total)})
}

// stale reports whether the last sample is older than d.
func (s *speedo) stale(d time.Duration) bool {
	return len(s.samples) == 0 || time.Since(s.samples[len(s.samples)-1].at) >= d //asmp:allow walltime benchmark timing
}

// speedSlack widens an op's interval when looking for the samples that
// describe the host's speed during it.
const speedSlack = 300 * time.Millisecond

// refMs is the kernels' summed time on the reference host.
func (s *speedo) refMs() float64 {
	ref := 0.0
	for _, k := range s.kernels {
		ref += k.refMs
	}
	return ref
}

// scale returns the factor that converts a time measured over [from, to]
// to the reference host speed: the kernels' reference time over the
// median of the samples taken within speedSlack of the interval, or over
// the nearest sample when none was. Without samples it is 1.
func (s *speedo) scale(from, to time.Time) float64 {
	var near []float64
	nearest, best := 0.0, time.Duration(-1)
	for _, x := range s.samples {
		if !x.at.Before(from.Add(-speedSlack)) && !x.at.After(to.Add(speedSlack)) {
			near = append(near, x.ms)
		}
		d := x.at.Sub(to)
		if x.at.Before(from) {
			d = from.Sub(x.at)
		}
		if best < 0 || d < best {
			nearest, best = x.ms, d
		}
	}
	switch {
	case len(near) > 0:
		return s.refMs() / median(near)
	case best >= 0:
		return s.refMs() / nearest
	}
	return 1
}

// medianMs is the median sample, in milliseconds.
func (s *speedo) medianMs() float64 {
	ms := make([]float64, len(s.samples))
	for i, x := range s.samples {
		ms[i] = x.ms
	}
	return median(ms)
}
