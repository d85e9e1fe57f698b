// Command bp-experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index). The default
// scales are reduced so a full run finishes in seconds; pass -paper-scale
// for the published workload sizes (2,000 apps, 5,000 monkey events,
// 10,000×25 stress iterations).
//
// Usage:
//
//	bp-experiments -run all
//	bp-experiments -run fig3 -paper-scale
//	bp-experiments -run fig4
//	bp-experiments -run fleet -paper-scale          # 8 gateways, 10k devices
//	bp-experiments -run fleet -fleet-gateways 3 -fleet-devices 40
//
// The fleet run shares bp-gateway's audit and metrics flags: -audit
// ships the fleet-wide enforcement trail, -metrics-addr serves the
// aggregated per-gateway scrape (add -linger to keep it up afterwards).
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
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bp-experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	which := flag.String("run", "all", "experiment: fig3|validation|cloud|facebook|fig4|keepalive|flowsize|replay|whitelist|dns|soak|fleet|context|all")
	paperScale := flag.Bool("paper-scale", false, "use the paper's full workload sizes")
	seed := flag.Int64("seed", 2019, "corpus seed")
	fleetGateways := flag.Int("fleet-gateways", 0, "fleet experiment: gateway count (0 = 8, or 4 without -paper-scale)")
	fleetDevices := flag.Int("fleet-devices", 0, "fleet experiment: pooled devices per gateway (0 = 1250, or 150 without -paper-scale)")
	fleetBatch := flag.Int("fleet-batch", 0, "fleet experiment: gateway drain burst size (0 = 1024)")
	fleetJSON := flag.String("fleet-json", "BENCH_fleet.json", "machine-readable output path for the fleet benchmark")
	contextDevices := flag.Int("context-devices", 0, "context experiment: pooled devices (0 = 64, or 32 without -paper-scale)")
	contextJSON := flag.String("context-json", "BENCH_context.json", "machine-readable output path for the context experiment")
	auditFlags := cliflags.RegisterAudit(flag.CommandLine)
	metricsFlags := cliflags.RegisterMetrics(flag.CommandLine)
	flag.Parse()

	want := map[string]bool{}
	for _, w := range strings.Split(*which, ",") {
		want[strings.TrimSpace(w)] = true
	}
	all := want["all"]

	// Shared corpus for the corpus-driven experiments.
	var corpus []*apkgen.App
	needCorpus := all || want["fig3"] || want["validation"] || want["flowsize"]
	if needCorpus {
		cfg := apkgen.DefaultConfig()
		cfg.Seed = *seed
		if !*paperScale {
			cfg.Apps = 400
		}
		var err error
		corpus, err = apkgen.Generate(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "generated %d-app corpus (seed %d)\n", len(corpus), *seed)
	}

	section := func(title string) {
		fmt.Printf("\n%s\n%s\n", title, strings.Repeat("=", len(title)))
	}

	if all || want["fig3"] {
		section("E1/E2 — Figure 3: IPs-of-interest")
		events := 2000
		if *paperScale {
			events = 5000
		}
		res, err := experiments.RunFig3(experiments.Fig3Config{
			Corpus:       corpus,
			MonkeyEvents: events,
			MonkeySeed:   *seed,
		})
		if err != nil {
			return err
		}
		fmt.Print(res.Format())
	}

	if all || want["validation"] {
		section("E3 — Validation: tracker deny-list (§VI-B1)")
		cfg := experiments.ValidationConfig{Corpus: corpus, SampleSize: 60, TopLibraries: 60}
		if !*paperScale {
			cfg.SampleSize = 30
			cfg.TopLibraries = 30
		}
		res, err := experiments.RunValidation(cfg)
		if err != nil {
			return err
		}
		fmt.Print(res.Format())
	}

	if all || want["cloud"] {
		section("E4 — Case study: cloud storage (§VI-C)")
		res, err := experiments.RunCloudCaseStudy()
		if err != nil {
			return err
		}
		fmt.Print(res.Format())
	}

	if all || want["facebook"] {
		section("E5 — Case study: Facebook SDK (§VI-C)")
		res, err := experiments.RunFacebookCaseStudy()
		if err != nil {
			return err
		}
		fmt.Print(res.Format())
	}

	if all || want["fig4"] {
		section("E6 — Figure 4: per-request latency")
		opts := experiments.Fig4Options{Iterations: 1000, Runs: 3}
		if *paperScale {
			opts = experiments.DefaultFig4Options()
		}
		res, err := experiments.RunFig4(opts)
		if err != nil {
			return err
		}
		fmt.Print(res.Format())
	}

	if all || want["keepalive"] {
		section("E7 — Keep-alive amortization (§VI-D)")
		iters := 200
		if *paperScale {
			iters = 2000
		}
		points, err := experiments.RunKeepAliveAmortization([]int{1, 2, 5, 10, 50, 100}, iters)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatKeepAlive(points))
	}

	if all || want["flowsize"] {
		section("E8 — Flow sizes & threshold evasion (§VII)")
		res, err := experiments.RunFlowSize(corpus, 4096)
		if err != nil {
			return err
		}
		fmt.Print(res.Format())
	}

	if all || want["replay"] {
		section("E9 — Tag replay mitigation (§VII)")
		res, err := experiments.RunReplay()
		if err != nil {
			return err
		}
		fmt.Print(res.Format())
	}

	if all || want["whitelist"] {
		section("E11 — Whitelisting posture & repackaged apps (§VII)")
		res, err := experiments.RunWhitelist()
		if err != nil {
			return err
		}
		fmt.Print(res.Format())
	}

	if all || want["dns"] {
		section("E12 — DNS over UDP through the gateway (transport layer)")
		res, err := experiments.RunDNSResolution()
		if err != nil {
			return err
		}
		fmt.Print(res.Format())
	}

	if all || want["soak"] {
		section("E13 — Chaos soak: faults, degradation, restarts (virtual time)")
		cfg := experiments.DefaultSoakConfig()
		cfg.Seed = *seed
		if !*paperScale {
			// The smoke scale still exercises every churn dimension.
			cfg.Packets = 100_000
			cfg.Swaps = 20
		}
		res, err := experiments.RunSoak(cfg)
		if err != nil {
			return err
		}
		fmt.Println(res)
		if err := res.Check(); err != nil {
			return err
		}
		fmt.Println("all soak invariants held")
	}

	if all || want["fleet"] {
		section("E15 — Fleet: multi-gateway sharded enforcement")
		fcfg := experiments.FleetRunConfig{
			Gateways:          *fleetGateways,
			DevicesPerGateway: *fleetDevices,
			BatchSize:         *fleetBatch,
		}
		if !*paperScale {
			// The reduced scale still spans several shards and thousands
			// of packets; explicit -fleet-* flags override it.
			if fcfg.Gateways == 0 {
				fcfg.Gateways = 4
			}
			if fcfg.DevicesPerGateway == 0 {
				fcfg.DevicesPerGateway = 150
			}
		}
		auditW, closeAudit, err := auditFlags.Writer()
		if err != nil {
			return err
		}
		fcfg.AuditWriter = auditW
		fcfg.Metrics = metrics.NewAggregate("gateway")
		metricsAddr, stopMetrics, err := metricsFlags.Serve(fcfg.Metrics.Handler())
		if err != nil {
			return err
		}
		defer stopMetrics()
		if metricsAddr != "" {
			fmt.Printf("metrics: http://%s/metrics\n", metricsAddr)
		}
		res, err := experiments.RunFleet(fcfg)
		// RunFleet flushed the audit pipeline on its way out; the file can
		// close before the error check so it never leaks.
		if cerr := closeAudit(); cerr != nil && err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Print(res.Format())
		if err := res.Check(); err != nil {
			return err
		}
		fmt.Println("all fleet invariants held")
		if *fleetJSON != "" {
			if err := res.WriteJSON(*fleetJSON); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *fleetJSON)
		}
	}

	if all || want["context"] {
		section("E16 — Contextual policy: risk-scored predicates over a device pool")
		ccfg := experiments.ContextRunConfig{Devices: *contextDevices, Seed: *seed}
		if !*paperScale {
			if ccfg.Devices == 0 {
				ccfg.Devices = 32
			}
			ccfg.HitIterations = 100_000
		}
		res, err := experiments.RunContext(ccfg)
		if err != nil {
			return err
		}
		fmt.Print(res.Format())
		if err := res.Check(); err != nil {
			return err
		}
		fmt.Println("all context invariants held")
		if *contextJSON != "" {
			if err := res.WriteJSON(*contextJSON); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *contextJSON)
		}
	}

	metricsFlags.Wait(os.Stdout)
	return nil
}
