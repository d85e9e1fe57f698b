package main

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"borderpatrol/internal/android"
	"borderpatrol/internal/apkgen"
	"borderpatrol/internal/experiments"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/policystore"
	"borderpatrol/internal/trackers"
)

// funcRef is one corpus functionality the generator can invoke, with the
// generator-side truth the oracle predicts its packets' fate from.
type funcRef struct {
	app  *android.App
	name string
	// tracker: the functionality originates in a deny-listed library.
	tracker bool
	// native: it bypasses the hooked Java socket API, so its packets
	// leave the device untagged.
	native bool
	// vendor indexes deployment.vendors: the developer's package prefix
	// ("com/vendor007"), the target policy pushes toggle.
	vendor int
	// vendorInStack: the functionality's call path runs through the
	// vendor's own code, so a deny on the vendor prefix covers it.
	vendorInStack bool
}

// deployment is one assembled BorderPatrol testbed over a seeded corpus,
// with its policy fed from a hub the benchmark publishes to.
type deployment struct {
	tb      *experiments.Testbed
	base    []policy.Rule
	funcs   []funcRef
	vendors []string
	// live is the gateway's control plane; the oracle predicts from the
	// revision in force there. standby is a second store with its own
	// engine, wired to nothing: workloads that must not disturb the
	// gateway's caches push to it, so push latency is still measured
	// under their traffic.
	live, standby control
	// standbyMetrics holds the standby store's instruments (the testbed's
	// registry already has the live store's under the same names).
	standbyMetrics *metrics.Registry
}

// control is one policy control plane: the hub the benchmark publishes to
// and the store that applies what it publishes.
type control struct {
	hub   *policystore.Hub
	store *policystore.Store
	// denied is the vendor the revision in force denies on top of the
	// base rules (-1: none); pushes toggle it.
	denied int
}

// Provisioned device context: on a cellular network with a 45-day-old
// patch level. The base policy's risk rules score it 55 — past the warn
// threshold, below the block threshold even at a weekend — so the risk
// program runs on every evaluated flow without deciding any.
const devicePatchAgeDays = 45

// baseRules is the §VI-B1 tracker deny list (one library rule per catalog
// entry, built as the validation experiment builds it) plus contextual
// risk predicates weighted below the block threshold.
func baseRules() []policy.Rule {
	catalog := trackers.Catalog()
	rules := make([]policy.Rule, 0, len(catalog)+3)
	for _, lib := range catalog {
		rules = append(rules, policy.Rule{Action: policy.Deny, Level: policy.LevelLibrary, Target: lib.Package})
	}
	return append(rules,
		policy.Rule{Kind: policy.KindRisk, Pred: policy.PredNetwork, Target: "cellular", Weight: 30},
		policy.Rule{Kind: policy.KindRisk, Pred: policy.PredPosture, Target: "patch-age>30", Weight: 25},
		policy.Rule{Kind: policy.KindRisk, Pred: policy.PredTime, Target: "weekend", Weight: 30},
	)
}

// doc renders the policy revision that denies vendor v on top of the
// base rules (v < 0: the base rules alone).
func (d *deployment) doc(v int) string {
	rules := d.base
	if v >= 0 {
		rules = append(rules[:len(rules):len(rules)],
			policy.Rule{Action: policy.Deny, Level: policy.LevelLibrary, Target: d.vendors[v]})
	}
	return policy.FormatPolicy(rules)
}

// cores is the number of cores the benchmark runs the deployment on: the
// process's GOMAXPROCS and the gateway's drain workers. One core keeps
// the figures steady on a shared VM — with two, throughput and set-up
// time swung 12-40% between runs as the second vCPU's availability
// changed, against 2-11% with one — and makes the ledger a serial
// account of the one timeline, GC and audit drainer included. Scaling
// across cores is not measured.
const cores = 1

// newDeployment generates the paper-scale corpus from seed, sets every
// functionality to carry requests requests per connection, and assembles
// the gateway. auditW receives the JSON audit trail.
func newDeployment(seed int64, requests int, auditW io.Writer) (*deployment, error) {
	gen := apkgen.DefaultConfig()
	gen.Seed = seed
	corpus, err := apkgen.Generate(gen)
	if err != nil {
		return nil, fmt.Errorf("generate corpus: %w", err)
	}
	for _, ga := range corpus {
		for i := range ga.Functionalities {
			ga.Functionalities[i].Op.Requests = requests
		}
	}
	d := &deployment{base: baseRules()}
	d.live = control{hub: policystore.NewHub(d.doc(-1)), denied: -1}
	d.standby = control{hub: policystore.NewHub(d.doc(-1)), denied: -1}
	tb, err := experiments.NewTestbed(corpus, experiments.TestbedConfig{
		DefaultVerdict: policy.VerdictAllow,
		EnforcementOn:  true,
		GatewayWorkers: cores,
		AuditWriter:    auditW,
		PolicySource:   d.live.hub.Source(),
		DisableCapture: true,
		Dataplane:      true,
		// The facade's virtual default: the flow table settles at a size
		// set by the TTL, not by how long the run lasts.
		FlowTTL: time.Minute,
	})
	if err != nil {
		return nil, fmt.Errorf("assemble testbed: %w", err)
	}
	d.live.store = tb.Policy
	standbyEngine, err := policy.NewEngine(nil, policy.VerdictAllow)
	if err != nil {
		return nil, fmt.Errorf("standby engine: %w", err)
	}
	d.standby.store, err = policystore.New(policystore.Config{Source: d.standby.hub.Source(), Engine: standbyEngine})
	if err != nil {
		return nil, fmt.Errorf("standby store: %w", err)
	}
	if err := d.standby.store.Load(); err != nil {
		return nil, fmt.Errorf("standby policy: %w", err)
	}
	d.standbyMetrics = metrics.NewRegistry()
	d.standby.store.RegisterMetrics(d.standbyMetrics)
	d.tb = tb
	tb.Device.ReportNetwork(policy.NetCellular)
	tb.Device.ReportPatchAge(devicePatchAgeDays)

	vendorIdx := map[string]int{}
	for i, ga := range corpus {
		vendor := vendorPrefix(ga.APK.PackageName)
		v, ok := vendorIdx[vendor]
		if !ok {
			v = len(d.vendors)
			vendorIdx[vendor] = v
			d.vendors = append(d.vendors, vendor)
		}
		for _, fn := range ga.Functionalities {
			inStack := false
			for _, fr := range fn.CallPath {
				inStack = inStack || strings.HasPrefix(fr.Class, vendor+"/")
			}
			d.funcs = append(d.funcs, funcRef{
				app:           tb.Apps[i],
				name:          fn.Name,
				tracker:       ga.Meta[fn.Name].IsTracker,
				native:        fn.Op.UseNativeSocket,
				vendor:        v,
				vendorInStack: inStack,
			})
		}
	}
	return d, nil
}

// vendorPrefix maps "com.vendor007.app0007" to its first two package
// segments in class-path form, "com/vendor007".
func vendorPrefix(pkg string) string {
	parts := strings.SplitN(pkg, ".", 3)
	if len(parts) < 2 {
		return strings.ReplaceAll(pkg, ".", "/")
	}
	return parts[0] + "/" + parts[1]
}

// pushTimes marks a policy push: the revision's document is composed
// from composed to start, Hub.Set runs from start to published, and
// Store.Reload returns applied at applied.
type pushTimes struct{ composed, start, published, applied time.Time }

// push publishes to c the revision that denies vendor v (v < 0 lifts the
// deny) and applies it with a manual reload, as an operator's push would
// land.
func (d *deployment) push(c *control, v int) (pushTimes, error) {
	var t pushTimes
	t.composed = time.Now()
	c.denied = v
	doc := d.doc(v)
	t.start = time.Now()
	c.hub.Set(doc)
	t.published = time.Now()
	applied, err := c.store.Reload()
	t.applied = time.Now()
	if err != nil {
		return t, fmt.Errorf("policy push: %w", err)
	}
	if !applied {
		return t, errors.New("policy push: revision not applied")
	}
	return t, nil
}

// close flushes and stops the deployment's background goroutines.
func (d *deployment) close() error {
	if d == nil || d.tb == nil {
		return nil
	}
	return d.tb.Close()
}
