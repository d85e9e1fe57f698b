package deploy

import (
	"strings"
	"testing"

	"borderpatrol/internal/netsim"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/policystore"
)

func newNetwork() *netsim.Network {
	return netsim.NewNetwork(netsim.ModeTAP, netsim.DefaultLatencyModel())
}

// families lists the metric family names a pipeline registered.
func families(p *Pipeline) map[string]bool {
	out := map[string]bool{}
	for _, s := range p.Metrics.Snapshot() {
		out[s.Name] = true
	}
	return out
}

func TestSanitizeOnlyPipeline(t *testing.T) {
	p, err := New(newNetwork(), Config{SanitizeOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.Enforcer != nil || p.Audit != nil || p.Policy != nil {
		t.Fatalf("sanitize-only pipeline carries enforcement state: %+v", p)
	}
	if fams := families(p); !fams["bp_sanitizer_packets_total"] || fams["bp_enforcer_verdicts_total"] {
		t.Fatalf("sanitize-only families: %v", fams)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestNoAuditPipeline(t *testing.T) {
	p, err := New(newNetwork(), Config{NoAudit: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.Enforcer == nil || p.Audit != nil {
		t.Fatalf("NoAudit pipeline: enforcer %v, audit %v", p.Enforcer, p.Audit)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestNewRejects(t *testing.T) {
	rules := []policy.Rule{{Action: policy.Deny, Level: policy.LevelLibrary, Target: "com/flurry"}}
	for name, cfg := range map[string]Config{
		"rules and source": {Rules: rules, Store: policystore.Config{Source: policystore.NewStaticSource("")}},
		"broken initial":   {Store: policystore.Config{Source: policystore.NewStaticSource("{[bogus]}")}},
	} {
		if _, err := New(newNetwork(), cfg); err == nil {
			t.Errorf("%s: accepted", name)
		} else if name == "broken initial" && !strings.HasPrefix(err.Error(), "initial policy: ") {
			t.Errorf("%s: error %q", name, err)
		}
	}
}
