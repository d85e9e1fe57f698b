// Command bp-gateway runs a BorderPatrol gateway session against a
// simulated BYOD device (paper §V-C/§V-D): it provisions a device with the
// Context Manager, installs a corpus slice, enforces a policy file at the
// gateway, exercises the apps with the monkey, and prints the enforcement
// audit.
//
// Usage:
//
//	bp-gateway -policy policy.bp -apps 20 -events 1000
//	bp-gateway -apps 5            # empty policy: only untagged traffic drops
//	bp-gateway -workers 8         # size the batched per-core queue drain
//	bp-gateway -no-flow-cache     # force the uncached per-packet pipeline
//	bp-gateway -audit trail.jsonl # ship the enforcement audit as JSON lines
//
// Hot reload (multi-backend policy store): -policy-file polls a policy
// file for edits, -policy-url polls an HTTP endpoint with ETag conditional
// fetches; either hot-swaps the compiled rules atomically mid-session and
// keeps the last-good rules if a candidate fails to parse.
//
//	bp-gateway -policy-file policy.bp                  # edit the file while it runs
//	bp-gateway -policy-url http://ctrl/policy.bp -policy-poll 5s
//
// Graceful degradation: -policy-max-stale arms a staleness deadline on the
// hot-reload store and -fail-mode selects the posture past it — "static"
// keeps the last-good rules (default), "open" admits everything, "closed"
// denies everything until a healthy reload recovers.
//
//	bp-gateway -policy-url http://ctrl/policy.bp -policy-max-stale 30s -fail-mode closed
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"borderpatrol/internal/apkgen"
	"borderpatrol/internal/cliflags"
	"borderpatrol/internal/experiments"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/monkey"
	"borderpatrol/internal/policy"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bp-gateway:", err)
		os.Exit(1)
	}
}

func run() error {
	policyPath := flag.String("policy", "", "policy file in the paper's grammar, loaded once (empty = allow all)")
	apps := flag.Int("apps", 20, "number of corpus apps to install")
	events := flag.Int("events", 1000, "monkey events per app")
	seed := flag.Int64("seed", 2019, "corpus + monkey seed")
	workers := flag.Int("workers", 0, "gateway batch-drain workers (0 = GOMAXPROCS)")
	noFlowCache := flag.Bool("no-flow-cache", false, "disable per-flow verdict caching")
	policyFlags := cliflags.RegisterPolicy(flag.CommandLine)
	auditFlags := cliflags.RegisterAudit(flag.CommandLine)
	metricsFlags := cliflags.RegisterMetrics(flag.CommandLine)
	contextFlags := cliflags.RegisterContext(flag.CommandLine)
	flag.Parse()

	policySource, failMode, err := policyFlags.Source(*policyPath != "")
	if err != nil {
		return err
	}
	deviceCtx, err := contextFlags.DeviceContext()
	if err != nil {
		return err
	}
	auditW, closeAudit, err := auditFlags.Writer()
	if err != nil {
		return err
	}
	defer closeAudit()

	var rules []policy.Rule
	if *policyPath != "" {
		f, err := os.Open(*policyPath)
		if err != nil {
			return err
		}
		rules, err = policy.ParsePolicy(f)
		f.Close()
		if err != nil {
			return err
		}
		fmt.Printf("loaded %d policy rules from %s\n", len(rules), *policyPath)
	}

	cfg := apkgen.DefaultConfig()
	cfg.Apps = *apps
	cfg.Seed = *seed
	corpus, err := apkgen.Generate(cfg)
	if err != nil {
		return err
	}
	tb, err := experiments.NewTestbed(corpus, experiments.TestbedConfig{
		EnforcementOn:    true,
		Rules:            rules,
		DefaultVerdict:   policy.VerdictAllow,
		DisableFlowCache: *noFlowCache,
		GatewayWorkers:   *workers,
		AuditWriter:      auditW,
		PolicySource:     policySource,
		PolicyPoll:       policyFlags.Poll,
		PolicyMaxStale:   policyFlags.MaxStale,
		PolicyFailMode:   failMode,
	})
	if err != nil {
		return err
	}
	if deviceCtx != nil {
		tb.Context.Provision(tb.Device.Config().Addr, *deviceCtx)
		fmt.Printf("device context: network %s, patch age %dd\n", deviceCtx.Network, deviceCtx.PatchAgeDays)
	}
	if tb.Policy != nil {
		ps := tb.Policy.Stats()
		fmt.Printf("policy store: %d rules from %s (revision %s, hot reload every %s)\n",
			ps.Rules, ps.Source, ps.Version, policyFlags.Poll)
		if policyFlags.MaxStale > 0 {
			fmt.Printf("  staleness deadline %s, fail mode %s\n", policyFlags.MaxStale, failMode)
		}
	}

	metricsAddr, stopMetrics, err := metricsFlags.Serve(tb.Metrics.Handler())
	if err != nil {
		return err
	}
	defer stopMetrics()
	if metricsAddr != "" {
		fmt.Printf("metrics: http://%s/metrics\n", metricsAddr)
	}

	totalPackets, delivered := 0, 0
	for i, app := range tb.Apps {
		rep, err := monkey.Run(app, monkey.Config{
			Events:             *events,
			NetworkTriggerProb: 0.02,
			Seed:               *seed + int64(i),
		})
		if err != nil {
			return err
		}
		// Drain the app's whole monkey session as one burst through the
		// batched per-core gateway pipeline.
		totalPackets += len(rep.Packets)
		d, _ := tb.DeliverAll(rep.Packets)
		delivered += d
	}

	fmt.Printf("\ngateway session: %d apps, %d monkey events each\n", len(tb.Apps), *events)
	fmt.Printf("packets seen: %d, delivered: %d, dropped: %d\n", totalPackets, delivered, totalPackets-delivered)
	if ps := tb.Policy.Stats(); ps.LastError != "" {
		fmt.Printf("last rejected policy candidate: %s\n", ps.LastError)
	}
	// Flush-on-close so every decision reaches the -audit file before the
	// stats are printed.
	if err := tb.Close(); err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	// The stats printout walks the metrics registry: every instrument a
	// component registered shows up here automatically — no hand-listed
	// fields to fall out of date when a layer grows a counter.
	printRegistry(tb.Metrics)

	metricsFlags.Wait(os.Stdout)
	return nil
}

// printRegistry renders every registered series, one line per sample.
// Histograms print count, mean and the tail quantiles instead of raw
// buckets — the interactive rendering of what /metrics exposes in full.
func printRegistry(r *metrics.Registry) {
	for _, s := range r.Snapshot() {
		var lb strings.Builder
		for i, l := range s.Labels {
			if i == 0 {
				lb.WriteByte('{')
			} else {
				lb.WriteByte(',')
			}
			fmt.Fprintf(&lb, "%s=%q", l.Key, l.Value)
		}
		if len(s.Labels) > 0 {
			lb.WriteByte('}')
		}
		switch {
		case s.Hist != nil:
			fmt.Printf("%s%s count=%d mean=%.0f p50=%d p99=%d p999=%d\n",
				s.Name, lb.String(), s.Hist.Count(), s.Hist.Mean(),
				s.Hist.Quantile(0.5), s.Hist.Quantile(0.99), s.Hist.Quantile(0.999))
		case s.Kind == metrics.KindGauge:
			fmt.Printf("%s%s %g\n", s.Name, lb.String(), s.Value)
		default:
			fmt.Printf("%s%s %.0f\n", s.Name, lb.String(), s.Value)
		}
	}
}
