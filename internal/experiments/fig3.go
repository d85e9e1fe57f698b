package experiments

import (
	"fmt"
	"strings"

	"borderpatrol/internal/apkgen"
	"borderpatrol/internal/ioi"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/monkey"
)

// Fig3Result reproduces Figure 3 and the §VI-B prevalence statistics: the
// number of apps with 1..N IPs-of-interest, the same-package share among
// IoI apps, and the cross-package share among IoIs.
type Fig3Result struct {
	// CorpusSize is how many apps were exercised.
	CorpusSize int
	// Events is the monkey event count per app.
	Events int
	// Analysis is the raw IoI analysis.
	Analysis *ioi.Analysis
	// PaperHistogram is the published Fig. 3 series for side-by-side
	// comparison (apps with 1,2,3,4,5 IoIs).
	PaperHistogram []int
	// PaperAppsWithIoI is the published count of apps with >= 1 IoI (218).
	PaperAppsWithIoI int
	// MeanCoverage is the average monkey functionality coverage.
	MeanCoverage float64
}

// Fig3Config parameterizes the corpus experiment.
type Fig3Config struct {
	// Corpus overrides the generated corpus (nil generates cfg.CorpusCfg).
	Corpus []*apkgen.App
	// CorpusCfg generates the corpus when Corpus is nil.
	CorpusCfg apkgen.Config
	// MonkeyEvents per app (paper: 5,000).
	MonkeyEvents int
	// MonkeySeed bases per-app seeds.
	MonkeySeed int64
}

// DefaultFig3Config is the paper-scale configuration: 2,000 apps and 5,000
// events each.
func DefaultFig3Config() Fig3Config {
	return Fig3Config{
		CorpusCfg:    apkgen.DefaultConfig(),
		MonkeyEvents: 5000,
		MonkeySeed:   1,
	}
}

// RunFig3 exercises every corpus app with the monkey while the Context
// Manager tags traffic, captures device-egress packets, and computes the
// IoI analysis. Enforcement is off — this is the observation phase.
func RunFig3(cfg Fig3Config) (*Fig3Result, error) {
	corpus := cfg.Corpus
	if corpus == nil {
		var err error
		corpus, err = apkgen.Generate(cfg.CorpusCfg)
		if err != nil {
			return nil, err
		}
	}
	tb, err := NewTestbed(corpus, TestbedConfig{EnforcementOn: false})
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	var all []*ipv4.Packet
	var coverage float64
	for i, app := range tb.Apps {
		rep, err := monkey.Run(app, monkey.Config{
			Events:             cfg.MonkeyEvents,
			NetworkTriggerProb: 0.02,
			Seed:               cfg.MonkeySeed + int64(i),
		})
		if err != nil {
			return nil, fmt.Errorf("fig3: app %s: %w", app.APK.PackageName, err)
		}
		all = append(all, rep.Packets...)
		coverage += rep.Coverage
	}
	analysis, err := ioi.Analyze(all, tb.DB)
	if err != nil {
		return nil, err
	}
	return &Fig3Result{
		CorpusSize:       len(tb.Apps),
		Events:           cfg.MonkeyEvents,
		Analysis:         analysis,
		PaperHistogram:   []int{152, 53, 8, 3, 2},
		PaperAppsWithIoI: 218,
		MeanCoverage:     coverage / float64(len(tb.Apps)),
	}, nil
}

// Format renders the Fig. 3 histogram alongside the paper's numbers.
func (r *Fig3Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3 — apps with N IPs-of-Interest (corpus: %d apps, %d monkey events each)\n", r.CorpusSize, r.Events)
	fmt.Fprintf(&b, "%-18s %-12s %-12s\n", "IoIs per app", "measured", "paper")
	for i := 1; i <= 5; i++ {
		paper := 0
		if i-1 < len(r.PaperHistogram) {
			paper = r.PaperHistogram[i-1]
		}
		fmt.Fprintf(&b, "%-18d %-12d %-12d\n", i, r.Analysis.Histogram[i], paper)
	}
	over5 := 0
	for k, v := range r.Analysis.Histogram {
		if k > 5 {
			over5 += v
		}
	}
	if over5 > 0 {
		fmt.Fprintf(&b, "%-18s %-12d %-12s\n", ">5", over5, "-")
	}
	fmt.Fprintf(&b, "apps with >=1 IoI: measured %d, paper %d\n", r.Analysis.AppsWithIoI, r.PaperAppsWithIoI)
	fmt.Fprintf(&b, "same-package share of IoI apps: measured %.0f%%, paper 75%%\n", 100*r.Analysis.SamePackageShare())
	fmt.Fprintf(&b, "cross-package share of IoIs:    measured %.0f%%, paper 25%%\n", 100*r.Analysis.CrossPackageShare())
	fmt.Fprintf(&b, "mean monkey functionality coverage: %.2f (paper's numbers are a lower bound under partial coverage)\n", r.MeanCoverage)
	return b.String()
}
