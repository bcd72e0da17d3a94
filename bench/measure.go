package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childConfig is one child process's share of a run.
type childConfig struct {
	root   string // repository root the reference paths are relative to
	seed   uint64
	start  time.Time     // when the orchestrator started this process
	budget time.Duration // host time the timed reps may use
	// firstRep is the run-wide index of this child's first timed rep.
	// When tracing, odd-indexed reps are profiled and even ones are not,
	// so one run yields both sides of the tracing overhead.
	firstRep   int
	trace      bool
	profileDir string // where to keep profiles; "" drops them
}

// childReport is what a child hands back to the orchestrator.
type childReport struct {
	SetupS       float64     `json:"setup_s"`
	Attempted    int         `json:"attempted"`
	Failed       int         `json:"failed"`
	Failures     []string    `json:"failures,omitempty"`
	OutputSHA256 string      `json:"output_sha256"`
	Reps         []repSample `json:"reps"`
}

// repSample is one timed rep's host measurements.
type repSample struct {
	WallS        float64   `json:"wall_s"`
	CPUS         float64   `json:"cpu_s"`
	PeakRSSMB    float64   `json:"peak_rss_mb"`
	ProbeMS      float64   `json:"probe_ms"`
	GCCPUS       float64   `json:"gc_cpu_s"`
	AllocMB      float64   `json:"alloc_mb"`
	AllocObjects float64   `json:"alloc_objects"`
	GCCycles     float64   `json:"gc_cycles"`
	Counts       simCounts `json:"counts"`
	Spans        []float64 `json:"spans,omitempty"`
	RelerrMax    float64   `json:"relerr_max"`
	Layers       *layerCPU `json:"layers,omitempty"` // profiled reps only
}

// measure runs one child's share: a warm-up rep that ends set-up, then
// timed reps until the budget is spent (at least one). At the reference
// seed every rep must reproduce the committed files. At any other seed
// the warm-up rep must have their shape, and every timed rep must
// reproduce the warm-up rep.
func measure(w *workload, cfg childConfig) (childReport, error) {
	want, err := loadReferences(cfg.root, w.refs)
	if err != nil {
		return childReport{}, err
	}
	wantNames := make([]string, len(w.refs))
	for i, r := range w.refs {
		wantNames[i] = r.path
	}
	in := input{seed: cfg.seed, reference: w.reference(cfg.seed), parallel: runtime.GOMAXPROCS(0)}
	var rpt childReport
	check := func(rep string, msg string) {
		rpt.Attempted++
		if msg != "" {
			rpt.Failed++
			rpt.Failures = append(rpt.Failures, rep+": "+msg)
		}
	}

	warm, err := w.rep(in)
	if err != nil {
		return childReport{}, fmt.Errorf("warm-up rep: %w", err)
	}
	if in.reference {
		check("warm-up rep", diffOutputs(warm.outputs, want, wantNames))
	} else {
		check("warm-up rep", shapeDiff(warm.outputs, want, wantNames))
		want = warm.outputs
		for i := range wantNames {
			wantNames[i] = "the warm-up rep"
		}
	}
	// Set-up ends with the warm-up rep: the cold run a CLI user pays.
	rpt.SetupS = time.Since(cfg.start).Seconds() //lint:allow simtime
	rpt.OutputSHA256 = hashOutputs(warm.outputs)

	// Another rep runs while it is more likely to end inside the budget
	// than past it, so the children's reps add up to about -seconds.
	var used float64
	for i := 0; i == 0 || used+rpt.Reps[i-1].WallS/2 < cfg.budget.Seconds(); i++ {
		index := cfg.firstRep + i
		s, res, err := timedRep(w, in, cfg.trace && index%2 == 1, cfg.profileDir, index)
		if err != nil {
			check(fmt.Sprintf("rep %d", index), err.Error())
		} else {
			check(fmt.Sprintf("rep %d", index), diffOutputs(res.outputs, want, wantNames))
		}
		rpt.Reps = append(rpt.Reps, s)
		used += s.WallS
	}
	return rpt, nil
}

// timedRep runs one rep under measurement. Like a fresh desiccant-sim
// process, a rep starts from a collected heap whose free pages went back
// to the OS; the host probe runs in between, with no GC work of the
// previous rep left to overlap it.
func timedRep(w *workload, in input, profiled bool, profileDir string, index int) (repSample, repResult, error) {
	debug.FreeOSMemory()
	s := repSample{ProbeMS: probe()}
	resetPeakRSS()
	before := readRuntimeMetrics()
	var ru0, ru1 syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0) // cannot fail for RUSAGE_SELF
	var prof bytes.Buffer
	if profiled {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return s, repResult{}, err
		}
	}
	// Rep wall time is the benchmark's measurement, not simulated time.
	start := time.Now() //lint:allow simtime
	res, err := w.rep(in)
	s.WallS = time.Since(start).Seconds() //lint:allow simtime
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	after := readRuntimeMetrics()
	if profiled {
		pprof.StopCPUProfile()
	}
	s.CPUS = cpuSeconds(ru1) - cpuSeconds(ru0)
	s.PeakRSSMB = peakRSSMB()
	s.GCCPUS = after[0] - before[0]
	s.AllocMB = (after[1] - before[1]) / (1 << 20)
	s.AllocObjects = after[2] - before[2]
	s.GCCycles = after[3] - before[3]
	s.Counts, s.Spans, s.RelerrMax = res.counts, res.spans, res.relerrMax
	if err != nil || !profiled {
		return s, res, err
	}
	if profileDir != "" {
		path := filepath.Join(profileDir, fmt.Sprintf("%s-rep%d.pprof", w.name, index))
		if err := os.WriteFile(path, prof.Bytes(), 0o644); err != nil {
			return s, res, err
		}
	}
	layers, err := attribute(&prof)
	if err != nil {
		return s, res, fmt.Errorf("cpu profile: %w", err)
	}
	s.Layers = layers
	return s, res, nil
}

func loadReferences(root string, refs []reference) ([][]byte, error) {
	out := make([][]byte, len(refs))
	for i, r := range refs {
		b, err := os.ReadFile(filepath.Join(root, r.path))
		if err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
		if r.filter != nil {
			b = r.filter(b)
		}
		out[i] = b
	}
	return out, nil
}

// diffOutputs describes how got differs from want, or returns "" when
// every output is byte-identical.
func diffOutputs(got, want [][]byte, names []string) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d outputs, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			return fmt.Sprintf("output %d differs from %s (sha256 %s, want %s)",
				i, names[i], hashOutputs(got[i:i+1]), hashOutputs(want[i:i+1]))
		}
	}
	return ""
}

// shapeDiff checks outputs made from non-reference inputs against the
// committed files: each must have the same first line and the same
// number of lines. It returns "" when they do.
func shapeDiff(got, want [][]byte, names []string) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d outputs, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := bytes.SplitN(got[i], []byte("\n"), 2)[0], bytes.SplitN(want[i], []byte("\n"), 2)[0]
		if !bytes.Equal(g, w) || bytes.Count(got[i], []byte("\n")) != bytes.Count(want[i], []byte("\n")) {
			return fmt.Sprintf("output %d does not have the shape of %s", i, names[i])
		}
	}
	return ""
}

func hashOutputs(outputs [][]byte) string {
	h := sha256.New()
	for _, o := range outputs {
		h.Write(o)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// probeBuf is the host probe's constant input.
var probeBuf = bytes.Repeat([]byte("desiccant"), 1<<20)

// probe reads the host's speed: the fastest of five sha256 passes over
// a constant buffer, about 40 ms in all. The fastest pass skips a
// preemption that hits one pass but still reads a sustained slowdown,
// such as a busy sibling hyperthread.
func probe() float64 {
	best := math.Inf(1)
	for i := 0; i < 5; i++ {
		// The probe measures the host.
		start := time.Now() //lint:allow simtime
		sha256.Sum256(probeBuf)
		best = math.Min(best, float64(time.Since(start).Nanoseconds())/1e6) //lint:allow simtime
	}
	return best
}

func cpuSeconds(ru syscall.Rusage) float64 {
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// resetPeakRSS sets the process's VmHWM back to its current RSS. If the
// kernel refuses, VmHWM stays the process peak, an upper bound.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// runtimeMetricNames are read around every rep, in this order.
var runtimeMetricNames = [4]string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

func readRuntimeMetrics() [4]float64 {
	samples := make([]metrics.Sample, len(runtimeMetricNames))
	for i, name := range runtimeMetricNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	var out [4]float64
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		}
	}
	return out
}
