package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile: a
// tail figure resting on fewer is noise, so the rule falls back to the
// highest percentile that still has this many samples beyond it.
const minTail = 10

// quantile is one reported percentile: the value, the percentile actually
// used (lower than asked when the sample is too small), and the sample
// count it rests on.
type quantile struct {
	Value float64 `json:"value"`
	P     float64 `json:"p"`
	N     int     `json:"n"`
}

// tailQuantile returns the nearest-rank p-quantile (0 < p < 1) of sorted
// ascending samples when at least minTail samples lie beyond it, and
// otherwise the highest quantile that has minTail samples beyond it. ok is
// false when there are not even minTail+1 samples. The median (p = 0.5)
// follows the same rule, so it needs at least 21 samples.
func tailQuantile(sorted []float64, p float64) (q quantile, ok bool) {
	n := len(sorted)
	if n <= minTail {
		return quantile{N: n}, false
	}
	rank := ceilRank(p, n) // 1-based nearest rank
	if n-rank < minTail {
		rank = n - minTail
		p = float64(rank) / float64(n)
	}
	return quantile{Value: sorted[rank-1], P: p, N: n}, true
}

// ceilRank is the 1-based nearest rank ⌈p·n⌉, clamped to [1, n]. The
// small slack keeps float error (0.9·120 = 108.00000000000001) from
// pushing an exact rank up by one.
func ceilRank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// sortedNs converts nanosecond samples to the given unit and sorts them.
func sortedNs(ns []int64, unit time.Duration) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / float64(unit)
	}
	sort.Float64s(out)
	return out
}

// median of unsorted values (mean of the middle two for even counts).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// interval is a [Start, End) span of monotonic nanoseconds.
type interval struct{ Start, End int64 }

// selfTime is a span's duration minus the part of it that its children
// cover. Children may overlap each other (concurrent workers) and may
// stick out of the parent; only their union inside the parent counts.
func selfTime(parent interval, children []interval) int64 {
	return (parent.End - parent.Start) - coveredWithin(parent, children)
}

// coveredWithin is the length of the union of ivs clipped to the window.
func coveredWithin(window interval, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.Start, window.Start), min(iv.End, window.End)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].Start < clipped[j].Start })
	var total, curS, curE int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curS, curE, open = iv.Start, iv.End, true
		case iv.Start <= curE:
			curE = max(curE, iv.End)
		default:
			total += curE - curS
			curS, curE = iv.Start, iv.End
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample reads the Go runtime counters the benchmark reports,
// without stopping the world.
type runtimeSample struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	var s runtimeSample
	if ms[0].Value.Kind() == metrics.KindUint64 {
		s.allocBytes = ms[0].Value.Uint64()
	}
	if ms[1].Value.Kind() == metrics.KindUint64 {
		s.gcCycles = ms[1].Value.Uint64()
	}
	if ms[2].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = ms[2].Value.Float64()
	}
	if ms[3].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = ms[3].Value.Float64()
	}
	return s
}

// liveHeapMiB forces a collection and reports the heap still in use.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// machine is recorded with every result: absolute times are not portable,
// so the calibration loop's time is kept beside them as a common unit.
type machine struct {
	NumCPU        int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	CPUModel      string  `json:"cpu_model"`
	GoVersion     string  `json:"go_version"`
	CalibNsPerOp  float64 `json:"calibration_ns_per_op"`
	CalibOpsTotal int     `json:"calibration_ops"`
}

func recordMachine() machine {
	return machine{
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		CPUModel:      cpuModel(),
		GoVersion:     runtime.Version(),
		CalibNsPerOp:  calibrate(),
		CalibOpsTotal: calibOps,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// calibOps is the calibration loop's length: hash a packet-sized buffer
// and probe a flow-table-sized map, the two kinds of work the gateway's
// per-packet path is made of.
const calibOps = 400_000

var calibSink uint64

// calibrate times the fixed calibration loop five times and returns the
// median ns per operation.
func calibrate() float64 {
	table := make(map[uint64]uint32, 4096)
	for i := uint64(0); i < 4096; i++ {
		table[mix(i)] = uint32(i)
	}
	var buf [64]byte
	runs := make([]float64, 5)
	for r := range runs {
		start := time.Now()
		var acc uint64
		for i := 0; i < calibOps; i++ {
			buf[i&63] = byte(i)
			h := uint64(14695981039346656037)
			for _, b := range buf {
				h = (h ^ uint64(b)) * 1099511628211
			}
			acc += uint64(table[mix(h&4095)])
		}
		calibSink += acc
		runs[r] = float64(time.Since(start).Nanoseconds()) / calibOps
	}
	return median(runs)
}

// mix is splitmix64's finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
