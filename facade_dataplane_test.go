package borderpatrol

import (
	"strconv"
	"strings"
	"testing"
)

// scrapeValue pulls the value of a single sample line (exact series name,
// including any label set) out of a Prometheus text exposition.
func scrapeValue(t *testing.T, prom, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(prom, "\n") {
		if !strings.HasPrefix(line, series+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, series)), 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("series %s missing from scrape", series)
	return 0
}

// metricValue scrapes the deployment's registry and reads one series.
func metricValue(t *testing.T, dep *Deployment, series string) float64 {
	t.Helper()
	var sb strings.Builder
	if err := dep.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return scrapeValue(t, sb.String(), series)
}

// TestDeploymentDataplane turns the per-core match-action stage on through
// the public facade and pins two things: verdicts are identical to the
// enforcer-only path (download delivered, upload and analytics dropped at
// the gateway by their deny rules), and the stage actually ran (probe
// misses counted on the deployment registry). Hits are not asserted:
// Exercise opens a fresh connection per call, so within a single batch
// every probe precedes the promotion of its own flow.
func TestDeploymentDataplane(t *testing.T) {
	dep, err := New(Config{
		Policy: PolicyConfig{
			Doc: `
{[deny][library]["com/flurry"]}
{[deny][method]["Lcom/corp/files/SyncEngine;->upload()V"]}
`,
		},
		Flow: FlowConfig{Dataplane: true, DataplaneEntries: 512},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	app, err := dep.InstallApp(demoAPK(), demoFuncs())
	if err != nil {
		t.Fatal(err)
	}

	for range [3]struct{}{} {
		out, err := dep.Exercise(app, "download")
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range out {
			if !o.Delivered {
				t.Fatalf("download packet %d dropped with dataplane on: %+v", i, o)
			}
		}
	}
	for _, fn := range []string{"upload", "analytics"} {
		out, err := dep.Exercise(app, fn)
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range out {
			if o.Delivered {
				t.Fatalf("%s packet %d not blocked with dataplane on", fn, i)
			}
			if o.DropStage != "gateway" {
				t.Fatalf("%s packet %d drop stage = %s", fn, i, o.DropStage)
			}
			if !strings.Contains(o.Reason, "deny rule") {
				t.Fatalf("%s packet %d reason = %q", fn, i, o.Reason)
			}
		}
	}

	var sb strings.Builder
	if err := dep.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	prom := sb.String()
	for _, family := range []string{
		"bp_dataplane_probes_total",
		"bp_dataplane_promotions_total",
		"bp_dataplane_seq_injection_drops_total",
	} {
		if !strings.Contains(prom, family) {
			t.Fatalf("metric family %s missing from scrape", family)
		}
	}
	if v := scrapeValue(t, prom, `bp_dataplane_probes_total{outcome="miss"}`); v == 0 {
		t.Fatal("dataplane enabled but no probe ever ran")
	}
	if v := scrapeValue(t, prom, "bp_dataplane_seq_injection_drops_total"); v != 0 {
		t.Fatalf("spurious response-injection drops on clean traffic: %v", v)
	}
}
