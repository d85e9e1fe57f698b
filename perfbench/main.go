// Command perfbench is BorderPatrol's end-to-end benchmark. In one process
// it assembles the full deployment — a provisioned device running the
// Context Manager over the paper-scale generated corpus, the gateway with
// dataplane, flow cache, enforcer, sanitizer and audit trail, and the
// simulated network and servers — drives one seeded workload through it in
// a closed loop, checks every packet's fate against a reference oracle,
// and prints the workload's metrics by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run measures half its time untraced and half traced, and reports the
// per-layer metrics, the ledger that reconciles the layers' self times
// with the traced end-to-end wall time, and the tracing overhead.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload keepalive --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10
//
// The exit status is nonzero when any packet's fate differs from the
// oracle's, any call returns an error, a count that must repeat for a
// seed does not, or the traced ledger misses its tolerance.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: keepalive, churn, policy_push, or all")
	seed := fs.Int64("seed", 1, "workload seed: the corpus, the traffic and the pushes all derive from it")
	seconds := fs.Float64("seconds", 10, "measured wall time of the closed loop")
	trace := fs.Int("trace", 0, "1: measure per-layer metrics in a traced run (0: end-to-end metrics)")
	out := fs.String("out", "", "directory for the result record and span dump (empty: none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	var specs []workloadSpec
	if *name == "all" {
		specs = workloads
	} else if w, ok := findWorkload(*name); ok {
		specs = []workloadSpec{w}
	} else {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	runtime.GOMAXPROCS(cores)
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	code := 0
	for _, spec := range specs {
		o := options{spec: spec, seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1, outDir: *out}
		if !runWorkload(o, stdout, stderr) {
			code = 1
		}
	}
	return code
}

type options struct {
	spec   workloadSpec
	seed   int64
	dur    time.Duration
	traced bool
	outDir string
}

// metricValue is one named metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is everything a run learned, written beside the result line.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Machine   machine                `json:"machine"`
	SetupS    []float64              `json:"setup_s"`
	Counts    []counts               `json:"determinism_counts"`
	Quantiles map[string]quantile    `json:"quantiles"`
	Tails     map[string]metricValue `json:"tails_not_gated"`
	Ledger    *ledger                `json:"ledger,omitempty"`
	Result    result                 `json:"result"`
	Failure   string                 `json:"first_failure,omitempty"`
}

// Fixed run shape.
const (
	// checkRounds is the untimed bursts every deployment runs before its
	// counts are compared: past every slot's staggered start.
	checkRounds = 100
	// warmRounds is the untimed bursts the measured deployment runs in
	// all before it is measured: three lifetimes of a keep-alive
	// connection, so the tables are warm.
	warmRounds = 200
	// minPushSamples is the smallest push-latency sample: a median with
	// twenty samples beyond it. A loop too short to push that often tops
	// up with pushes after it.
	minPushSamples = 40
	// windows cut the measured loop; rate metrics are window medians.
	windows = 5
	// ledgerTolerance bounds |e2e − Σ layers| / e2e in the traced run.
	ledgerTolerance = 0.05
)

// setupSeeds are the corpus seeds of the deployments a run sets up.
func setupSeeds(seed int64) []int64 {
	return []int64{seed + 1, seed, seed, seed}
}

// runWorkload runs one workload and prints its report and result line.
func runWorkload(o options, stdout, stderr io.Writer) bool {
	rec := record{Workload: o.spec.name, Seed: o.seed, Seconds: o.dur.Seconds(), Trace: o.traced}
	rec.Machine = recordMachine()
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	var failures []string
	failf := func(format string, args ...any) {
		res.Correct = false
		failures = append(failures, fmt.Sprintf(format, args...))
	}

	// Set up several times: once on a neighbouring seed, then on the
	// workload seed. The median is setup_s; the warm-up counts of the
	// same-seed deployments must match, and differ from the other seed's.
	// The last deployment is the one measured.
	sink := &auditSink{}
	var d *deployment
	var g *generator
	for i, s := range setupSeeds(o.seed) {
		if d != nil {
			if err := d.close(); err != nil {
				failf("close deployment: %v", err)
			}
			d, g = nil, nil
		}
		runtime.GC()
		start := time.Now()
		nd, err := newDeployment(s, o.spec.requests, sink)
		rec.SetupS = append(rec.SetupS, time.Since(start).Seconds())
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return false
		}
		d, g = nd, newGenerator(nd, o.spec, s)
		for g.round < checkRounds {
			g.step()
		}
		rec.Counts = append(rec.Counts, countsOf(g))
		res.Attempted += g.packets + g.conns + g.pushes
		res.Failed += g.failed
		if g.failed > 0 {
			failf("setup %d (seed %d): %d failures; first: %s", i, s, g.failed, g.firstFailure)
		}
	}
	last := rec.Counts[len(rec.Counts)-1]
	for i, c := range rec.Counts[:len(rec.Counts)-1] {
		switch seed := setupSeeds(o.seed)[i]; {
		case seed == o.seed && c != last:
			failf("counts differ between two runs of seed %d: %v vs %v", o.seed, c, last)
		case seed != o.seed && c == last:
			failf("counts of seeds %d and %d are identical: %v", seed, o.seed, last)
		}
	}
	beforeLoop := g.tally
	for g.round < warmRounds {
		g.step()
	}

	var untraced, measured phase
	var tr *tracer
	var loopTrace traceTotals
	var before, after layerSnap
	if o.traced {
		untraced = g.measure(o.dur/2, windows/2)
		tr = newTracer(cores)
		tr.install(d)
		sink.t.Store(tr)
		g.tr = tr
		before = snapshot(d)
		measured = g.measure(o.dur-o.dur/2, windows/2)
		after = snapshot(d)
		loopTrace = tr.totals()
	} else {
		measured = g.measure(o.dur, windows)
	}
	for len(g.pushNs) < minPushSamples {
		g.togglePush()
	}
	afterPushes := snapshot(d)
	e2e := endToEnd(measured, g.pushNs, rec.SetupS, &rec)
	// The latency samples are the benchmark's, not the deployment's, and
	// grow with throughput: drop them before the heap is measured.
	g.burstNs, g.invokeNs, g.pushNs = nil, nil, nil
	measured.burstNs, measured.invokeNs, measured.pushNs = nil, nil, nil
	untraced.burstNs, untraced.invokeNs, untraced.pushNs = nil, nil, nil
	e2e["live_heap_mb"] = metricValue{liveHeapMiB(), "MiB"}
	if err := d.close(); err != nil {
		failf("close deployment: %v", err)
	}
	if err := d.tb.Audit.Err(); err != nil {
		failf("audit writer: %v", err)
	}
	run := g.tally.since(beforeLoop)
	res.Attempted += run.packets + run.conns + run.pushes
	res.Failed += run.failed
	if run.failed > 0 {
		failf("%d failures; first: %s", run.failed, g.firstFailure)
	}
	if res.Attempted == 0 {
		failf("no operation attempted")
	}

	if o.traced {
		m, l, err := perLayer(o.spec.pushLive, untraced, measured, tr, loopTrace, before, after, afterPushes, last, rec.Machine)
		if err != nil {
			failf("%v", err)
		}
		res.Metrics, rec.Ledger = m, l
		if l != nil && l.Residual > ledgerTolerance {
			failf("ledger: layers explain %.1f%% of the traced wall time, outside ±%.0f%%",
				100*(1-l.Residual), 100*ledgerTolerance)
		}
		if o.outDir != "" {
			path := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d.spans.jsonl", o.spec.name, o.seed))
			if err := tr.dump(path); err != nil {
				failf("%v", err)
			}
		}
	} else {
		res.Metrics = e2e
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) { // too few samples; JSON cannot carry NaN
			failf("%s: too few samples", name)
			res.Metrics[name] = metricValue{0, m.Unit}
		}
	}
	rec.Result = res
	rec.Failure = strings.Join(failures, "; ")

	printReport(stdout, &rec, o, e2e, measured)
	if o.outDir != "" {
		if b, err := json.MarshalIndent(rec, "", "  "); err == nil {
			path := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d-trace%d.json", o.spec.name, o.seed, boolInt(o.traced)))
			if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
				fmt.Fprintln(stderr, "perfbench:", err)
			}
		}
	}
	for _, f := range failures {
		fmt.Fprintln(stderr, "perfbench: FAIL:", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return false
	}
	fmt.Fprintln(stdout, string(line))
	return res.Correct
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// endToEnd computes the end-to-end metrics of a measured phase.
func endToEnd(p phase, pushNs []int64, setupS []float64, rec *record) map[string]metricValue {
	m := map[string]metricValue{}
	var rates, cpus, allocs []float64
	for _, w := range p.windows {
		if w.packets == 0 {
			continue
		}
		rates = append(rates, float64(w.packets)/w.wall.Seconds())
		cpus = append(cpus, float64(w.cpu.Nanoseconds())/float64(w.packets))
		allocs = append(allocs, float64(w.alloc)/float64(w.packets))
	}
	m["pkts_per_s"] = metricValue{median(rates), "pkt/s"}
	m["cpu_ns_per_pkt"] = metricValue{median(cpus), "ns"}
	m["alloc_bytes_per_pkt"] = metricValue{median(allocs), "B"}
	m["setup_s"] = metricValue{median(setupS), "s"}

	rec.Quantiles = map[string]quantile{}
	rec.Tails = map[string]metricValue{}
	// invoke_p99_us and push_p90_ms are reported but not gated: over ten
	// seeds on the VM the benchmark was defined on, their spread (17% and
	// 43% on churn: GC phases, vCPU preemption) was too close to or past
	// the largest bound a gated metric may have. See NOTES.md.
	put := func(name, unit string, ns []int64, scale time.Duration, p float64, gated bool) {
		q, ok := tailQuantile(sortedNs(ns, scale), p)
		rec.Quantiles[name] = q
		v := q.Value
		if !ok {
			v = math.NaN()
		}
		if gated {
			m[name] = metricValue{v, unit}
		} else {
			rec.Tails[name] = metricValue{v, unit}
		}
	}
	put("burst_p50_us", "us", p.burstNs, time.Microsecond, 0.50, true)
	put("burst_p99_us", "us", p.burstNs, time.Microsecond, 0.99, true)
	put("invoke_p50_us", "us", p.invokeNs, time.Microsecond, 0.50, true)
	put("invoke_p99_us", "us", p.invokeNs, time.Microsecond, 0.99, false)
	put("push_p50_ms", "ms", pushNs, time.Millisecond, 0.50, true)
	put("push_p90_ms", "ms", pushNs, time.Millisecond, 0.90, false)
	return m
}

// printReport writes the human-readable report that precedes the result
// line: machine, set-up, determinism counts, every metric with its unit,
// and the error rate.
func printReport(w io.Writer, rec *record, o options, e2e map[string]metricValue, p phase) {
	m := rec.Machine
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%d\n", rec.Workload, rec.Seed, rec.Seconds, boolInt(rec.Trace))
	fmt.Fprintf(w, "machine: nproc=%d GOMAXPROCS=%d gateway_workers=%d cpu=%q go=%s calibration=%.3f ns/op\n",
		m.NumCPU, m.GOMAXPROCS, cores, m.CPUModel, m.GoVersion, m.CalibNsPerOp)
	target := "a standby store"
	if o.spec.pushLive {
		target = "the gateway's store"
	}
	fmt.Fprintf(w, "workload: %d connection slots, %d requests each, a push every %d bursts to %s: %s\n",
		o.spec.slots, o.spec.requests, o.spec.pushEvery, target, o.spec.why)
	fmt.Fprintf(w, "setup_s per deployment (seeds %v): %s\n", setupSeeds(rec.Seed), fmtFloats(rec.SetupS))
	for i, c := range rec.Counts {
		fmt.Fprintf(w, "warm-up counts, deployment %d: %s\n", i, c)
	}
	fmt.Fprintf(w, "measured: %d packets, %d connections, %d pushes in %.2f s\n",
		p.tally.packets, p.tally.conns, p.tally.pushes, p.wall.Seconds())
	if cpu, ok := e2e["cpu_ns_per_pkt"]; ok && m.CalibNsPerOp > 0 {
		fmt.Fprintf(w, "cpu per packet in calibration ops: %.2f\n", cpu.Value/m.CalibNsPerOp)
	}
	names := make([]string, 0, len(rec.Result.Metrics))
	for n := range rec.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := rec.Result.Metrics[n]
		extra := ""
		if q, ok := rec.Quantiles[n]; ok && !rec.Trace {
			extra = fmt.Sprintf("  (p%.4g of %d samples)", 100*q.P, q.N)
		}
		fmt.Fprintf(w, "  %-40s %14.6g %s%s\n", n, v.Value, v.Unit, extra)
	}
	if !rec.Trace {
		tails := make([]string, 0, len(rec.Tails))
		for n := range rec.Tails {
			tails = append(tails, n)
		}
		sort.Strings(tails)
		for _, n := range tails {
			v, q := rec.Tails[n], rec.Quantiles[n]
			fmt.Fprintf(w, "  %-40s %14.6g %s  (p%.4g of %d samples; reported, not gated)\n", n, v.Value, v.Unit, 100*q.P, q.N)
		}
	}
	if l := rec.Ledger; l != nil {
		fmt.Fprintf(w, "ledger (traced loop %.3f s, %d packets; tolerance ±%.0f%%):\n", l.WallS, l.Packets, 100*ledgerTolerance)
		for _, row := range l.Layers {
			fmt.Fprintf(w, "  %-12s wall %8.1f ns/pkt (%5.1f%%)   self %8.1f ns/pkt\n",
				row.Layer, row.WallNsPerPkt, 100*row.WallShare, row.SelfNsPerPkt)
		}
		fmt.Fprintf(w, "  %-12s wall %8.1f ns/pkt (%5.1f%%)\n", "untraced gap", l.GapNsPerPkt, 100*l.Residual)
		fmt.Fprintf(w, "  end-to-end   %8.1f ns/pkt traced, %8.1f untraced: tracing overhead %.1f ns/pkt\n",
			l.E2ENsPerPkt, l.UntracedNsPerPkt, l.E2ENsPerPkt-l.UntracedNsPerPkt)
	}
	rate := 0.0
	if rec.Result.Attempted > 0 {
		rate = float64(rec.Result.Failed) / float64(rec.Result.Attempted)
	}
	fmt.Fprintf(w, "  %-40s %14.6g ratio  (%d failed of %d attempted)\n", "error_rate", rate, rec.Result.Failed, rec.Result.Attempted)
	if rec.Failure != "" {
		fmt.Fprintf(w, "FAILED: %s\n", rec.Failure)
	}
}

func fmtFloats(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.3f", v)
	}
	return strings.Join(parts, " ")
}
