package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// environment is recorded in every result so a reader can tell a run that
// landed on a slow phase of a shared host from a real regression: the spin
// probe times the same fixed loop before and after the run.
type environment struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	SpinBefore float64 `json:"spin_before_s"`
	SpinAfter  float64 `json:"spin_after_s"`
}

func newEnvironment() environment {
	return environment{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo ("unknown"
// where there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, value, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

var spinSink uint64

// spinProbe times a fixed single-threaded integer loop (about a third of a
// second on a 2020s x86 core).
func spinProbe() float64 {
	start := time.Now()
	x := uint64(1)
	for i := 0; i < 100_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	spinSink = x
	return time.Since(start).Seconds()
}

// probeNominal is refProbe's time on the reference host (a 2-vCPU Intel
// Xeon VM) in one of its fast phases. A timing scaled by probeNominal over
// the probe time measured next to it is in reference seconds.
const probeNominal = 1500 * time.Microsecond

// refProbe times a fixed CPU kernel on two goroutines at once (one per
// vCPU of the reference host), each on its own OS thread, and returns the
// mean over the goroutines of the fastest of probeReps repetitions. Taking
// each goroutine's fastest repetition drops the ones the program's own
// leftover goroutines (a GC mark, a WAL flush) interrupted, and leaves what
// the host's speed sets. The kernel mixes what the program spends its CPU
// on — small dense matrix-vector products with tanh, as in LSTM inference,
// and float formatting, as in JSON encoding — and allocates nothing, so it
// never starts a garbage collection.
func refProbe() time.Duration {
	done := make(chan time.Duration, 2)
	var sinks [2]float64
	for g := 0; g < 2; g++ {
		go func(g int) {
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			best := time.Duration(math.MaxInt64)
			for r := 0; r < probeReps; r++ {
				start := time.Now()
				sinks[g] += probeKernel(probeRounds, g)
				best = min(best, time.Since(start))
			}
			done <- best
		}(g)
	}
	mean := (<-done + <-done) / 2
	probeSink = sinks[0] + sinks[1]
	return mean
}

const (
	probeRounds = 2000
	probeReps   = 5
)

var probeSink float64

// probeKernel is refProbe's fixed work; g only varies the weights between
// the two goroutines.
func probeKernel(rounds, g int) float64 {
	const d = 32
	var w [d * d]float64
	var x, y [d]float64
	for i := range w {
		w[i] = float64((i*7+g)%13-6) / 40
	}
	for i := range x {
		x[i] = float64(i%5) / 5
	}
	var buf [64]byte
	s := 0.0
	for r := 0; r < rounds; r++ {
		for i := 0; i < d; i++ {
			acc := 0.0
			for j, v := range w[i*d : (i+1)*d] {
				acc += v * x[j]
			}
			y[i] = math.Tanh(acc + 0.1)
		}
		x = y
		s += float64(len(strconv.AppendFloat(buf[:0], 1e5*x[r%d], 'g', -1, 64)))
	}
	return s + x[0]
}

// usage is the process's resource use so far.
type usage struct {
	cpu    time.Duration // user + system
	maxRSS int64         // peak resident set, bytes
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usage{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSS: ru.Maxrss * 1024, // Linux reports kilobytes
	}
}
