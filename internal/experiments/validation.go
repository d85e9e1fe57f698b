package experiments

import (
	"fmt"
	"sort"
	"strings"

	"borderpatrol/internal/apkgen"
	"borderpatrol/internal/audit"
	"borderpatrol/internal/flowtable"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/trackers"
)

// ValidationResult reproduces the §VI-B1 validation: a deny-list policy
// over the tracker-library catalog applied to a sample of apps covering the
// most popular libraries, scored for precision (tracker packets dropped)
// and impact (desirable functionality intact).
type ValidationResult struct {
	// SampleApps is the number of apps manually exercised (paper: 60).
	SampleApps int
	// LibrariesCovered is how many distinct deny-listed libraries the
	// sample includes (paper: the top 60).
	LibrariesCovered int
	// DenyRules is the policy size (one rule per catalog library: 1,050).
	DenyRules int
	// TrackerPacketsTotal / TrackerPacketsDropped measure precision.
	TrackerPacketsTotal   int
	TrackerPacketsDropped int
	// DesirableTotal / DesirableDelivered measure app impact.
	DesirableTotal     int
	DesirableDelivered int
	// VisibleChangeApps counts apps with user-visible differences (ads no
	// longer shown); analytics blocking is invisible.
	VisibleChangeApps int
	// BrokenApps counts apps that lost desirable functionality (paper: 0).
	BrokenApps int
	// PerLibrary summarizes drops per deny-listed library observed.
	PerLibrary map[string]int
	// EngineStats snapshots the compiled policy engine's counters after the
	// enforced run: every packet paid only indexed probes against the
	// 1,050-rule set, never a linear scan.
	EngineStats policy.Stats
	// FlowStats snapshots the enforced run's per-flow verdict cache:
	// repeat packets of a functionality's flow skip the pipeline entirely.
	FlowStats flowtable.Stats
	// MemoHits counts repeats answered by the batch drain's same-flow
	// memo before reaching the flow table.
	MemoHits uint64
	// AuditStats snapshots the enforced run's async audit pipeline: every
	// enforcement decision must be recorded and none shed.
	AuditStats audit.Stats
}

// ValidationConfig parameterizes the experiment.
type ValidationConfig struct {
	// Corpus is the app pool to sample from (nil generates the default).
	Corpus []*apkgen.App
	// CorpusCfg generates the corpus when Corpus is nil.
	CorpusCfg apkgen.Config
	// SampleSize is how many apps to select (paper: 60).
	SampleSize int
	// TopLibraries is how many popular libraries the sample must cover.
	TopLibraries int
	// LegacyPayloads runs both testbeds on the pre-transport wire format
	// (plain payloads, no TCP segments). The experiment counts only data
	// packets, so its results are identical in either mode — the property
	// TestTransportEquivalence locks in.
	LegacyPayloads bool
}

// DefaultValidationConfig mirrors the paper: 60 apps covering the 60 most
// popular deny-listed libraries.
func DefaultValidationConfig() ValidationConfig {
	return ValidationConfig{
		CorpusCfg:    apkgen.DefaultConfig(),
		SampleSize:   60,
		TopLibraries: 60,
	}
}

// RunValidation builds the 1,050-rule deny policy, selects the library
// sample, exercises each sampled app twice (enforcement off, then on), and
// compares behaviour.
func RunValidation(cfg ValidationConfig) (*ValidationResult, error) {
	corpus := cfg.Corpus
	if corpus == nil {
		var err error
		corpus, err = apkgen.Generate(cfg.CorpusCfg)
		if err != nil {
			return nil, err
		}
	}

	// Build the deny policy from the full catalog, as the paper does from
	// Li et al.'s 1,050 libraries.
	catalog := trackers.Catalog()
	rules := make([]policy.Rule, 0, len(catalog))
	for _, lib := range catalog {
		rules = append(rules, policy.Rule{Action: policy.Deny, Level: policy.LevelLibrary, Target: lib.Package})
	}

	// Select the sample: traverse libraries by popularity; for each, pick
	// one not-yet-chosen app bundling it (the paper's sampling procedure).
	sample := selectLibrarySample(corpus, catalog, cfg.TopLibraries, cfg.SampleSize)
	if len(sample) == 0 {
		return nil, fmt.Errorf("validation: no apps in corpus include deny-listed libraries")
	}

	res := &ValidationResult{
		SampleApps: len(sample),
		DenyRules:  len(rules),
		PerLibrary: make(map[string]int),
	}
	covered := map[string]bool{}

	// Run 1 (enforcement off) establishes the baseline; run 2 enforces.
	tbOff, err := NewTestbed(sample, TestbedConfig{EnforcementOn: false, LegacyPayloads: cfg.LegacyPayloads})
	if err != nil {
		return nil, err
	}
	defer tbOff.Close()
	tbOn, err := NewTestbed(sample, TestbedConfig{
		EnforcementOn: true, Rules: rules, DefaultVerdict: policy.VerdictAllow,
		LegacyPayloads: cfg.LegacyPayloads,
	})
	if err != nil {
		return nil, err
	}
	defer tbOn.Close()

	// deliverData pushes the whole burst through the gateway (control
	// segments included — they need verdicts like any packet) but scores
	// only data packets, so tracker/desirable counts are identical across
	// wire formats.
	deliverData := func(tb *Testbed, pkts []*ipv4.Packet) (dataTotal, dataDelivered int) {
		deliveries := tb.Network.DeliverBatch(pkts)
		for i, d := range deliveries {
			if !isDataPacket(pkts[i]) {
				continue
			}
			dataTotal++
			if d.Delivered {
				dataDelivered++
			}
		}
		return dataTotal, dataDelivered
	}

	for i, ga := range sample {
		visible := false
		broken := false
		for _, fn := range ga.Functionalities {
			meta := ga.Meta[fn.Name]
			// Baseline run: everything must flow.
			resOff, err := tbOff.Apps[i].Invoke(fn.Name)
			if err != nil {
				return nil, fmt.Errorf("validation: baseline %s/%s: %w", ga.APK.PackageName, fn.Name, err)
			}
			_, offDelivered := deliverData(tbOff, resOff.Packets)

			// Enforced run.
			resOn, err := tbOn.Apps[i].Invoke(fn.Name)
			if err != nil {
				return nil, fmt.Errorf("validation: enforced %s/%s: %w", ga.APK.PackageName, fn.Name, err)
			}
			onTotal, onDelivered := deliverData(tbOn, resOn.Packets)

			if meta.IsTracker {
				res.TrackerPacketsTotal += onTotal
				res.TrackerPacketsDropped += onTotal - onDelivered
				res.PerLibrary[meta.LibraryPkg] += onTotal - onDelivered
				covered[meta.LibraryPkg] = true
				if meta.VisibleWhenBlocked && onDelivered < offDelivered {
					visible = true
				}
			} else if fn.Desirable {
				res.DesirableTotal += onTotal
				res.DesirableDelivered += onDelivered
				if onDelivered < offDelivered {
					broken = true
				}
			}
		}
		if visible {
			res.VisibleChangeApps++
		}
		if broken {
			res.BrokenApps++
		}
	}
	res.LibrariesCovered = len(covered)
	res.EngineStats = tbOn.Engine.Stats()
	est := tbOn.Enforcer.Stats()
	res.FlowStats, res.MemoHits = est.Flow, est.BatchMemoHits
	// Flush the async audit pipeline so the snapshot covers every decision
	// of the run (the deferred Closes release both drainers; Close is
	// idempotent).
	if err := tbOn.Close(); err != nil {
		return nil, fmt.Errorf("validation: audit: %w", err)
	}
	res.AuditStats = tbOn.Audit.Stats()
	return res, nil
}

// selectLibrarySample implements the paper's procedure: sort libraries by
// popularity in the sample, and for each of the top libraries pick one app
// that includes it, until sampleSize apps are collected.
func selectLibrarySample(corpus []*apkgen.App, catalog []trackers.Library, topLibs, sampleSize int) []*apkgen.App {
	byLib := make(map[string][]*apkgen.App)
	for _, ga := range corpus {
		for _, lib := range ga.Libraries {
			byLib[lib] = append(byLib[lib], ga)
		}
	}
	chosen := make(map[string]*apkgen.App, sampleSize)
	var out []*apkgen.App
	count := 0
	for _, lib := range catalog {
		if count >= topLibs || len(out) >= sampleSize {
			break
		}
		count++
		apps := byLib[lib.Package]
		for _, ga := range apps {
			if _, dup := chosen[ga.APK.PackageName]; dup {
				continue
			}
			chosen[ga.APK.PackageName] = ga
			out = append(out, ga)
			break
		}
	}
	return out
}

// Format renders the validation summary.
func (r *ValidationResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Validation (§VI-B1) — tracker deny-list over %d apps covering %d libraries (%d deny rules)\n",
		r.SampleApps, r.LibrariesCovered, r.DenyRules)
	pct := func(n, d int) float64 {
		if d == 0 {
			return 0
		}
		return 100 * float64(n) / float64(d)
	}
	fmt.Fprintf(&b, "tracker packets dropped:    %d/%d (%.1f%%; paper: all)\n",
		r.TrackerPacketsDropped, r.TrackerPacketsTotal, pct(r.TrackerPacketsDropped, r.TrackerPacketsTotal))
	fmt.Fprintf(&b, "desirable packets delivered: %d/%d (%.1f%%; paper: no functional impact)\n",
		r.DesirableDelivered, r.DesirableTotal, pct(r.DesirableDelivered, r.DesirableTotal))
	fmt.Fprintf(&b, "apps with visible changes (ads absent): %d\n", r.VisibleChangeApps)
	fmt.Fprintf(&b, "apps with broken desirable functionality: %d (paper: 0)\n", r.BrokenApps)
	libs := make([]string, 0, len(r.PerLibrary))
	for l := range r.PerLibrary {
		libs = append(libs, l)
	}
	sort.Slice(libs, func(i, j int) bool { return r.PerLibrary[libs[i]] > r.PerLibrary[libs[j]] })
	max := 10
	if len(libs) < max {
		max = len(libs)
	}
	fmt.Fprintf(&b, "top blocked libraries:\n")
	for _, l := range libs[:max] {
		fmt.Fprintf(&b, "  %-40s %d packets dropped\n", l, r.PerLibrary[l])
	}
	fmt.Fprintf(&b, "flow cache: %d hits (+%d memo), %d misses, %d live flows\n",
		r.FlowStats.Hits, r.MemoHits, r.FlowStats.Misses, r.FlowStats.Live)
	fmt.Fprintf(&b, "audit: %d decisions recorded, %d dropped, %d flush bursts\n",
		r.AuditStats.Recorded, r.AuditStats.Dropped, r.AuditStats.Flushes)
	return b.String()
}
