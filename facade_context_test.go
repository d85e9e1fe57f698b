package borderpatrol

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"borderpatrol/internal/enforcer"
)

// TestDeploymentContextualPolicy drives the contextual dimension through
// the public facade: risk rules in Config.Policy.Doc, an initial device
// context, Exercise outcomes flipping with the device's reported context,
// and the bp_context_* metric families on the deployment registry.
func TestDeploymentContextualPolicy(t *testing.T) {
	dep, err := New(Config{
		Policy: PolicyConfig{
			Doc: `
{[deny][library]["com/flurry"]}
{[risk][network]["unknown"][100]}
{[risk][network]["trusted"][-50]}
{[threshold][block][100]}
`,
			InitialContext: &DeviceContext{Network: NetTrusted},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	app, err := dep.InstallApp(demoAPK(), demoFuncs())
	if err != nil {
		t.Fatal(err)
	}

	// Trusted network: the provisioned context keeps the risk score below
	// the block threshold, so the business flow delivers.
	out, err := dep.Exercise(app, "download")
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range out {
		if !o.Delivered {
			t.Fatalf("trusted download packet %d dropped: %+v", i, o)
		}
	}

	// The device roams to an unknown network. The report flows through the
	// bound context source, bumps the generation, and the next flow (and
	// any cached one) scores 100 ≥ block.
	dep.Device().ReportNetwork(NetUnknown)
	out, err = dep.Exercise(app, "download")
	if err != nil {
		t.Fatal(err)
	}
	dropped := 0
	for _, o := range out {
		if !o.Delivered {
			dropped++
			if !strings.Contains(o.Reason, "risk score") {
				t.Fatalf("drop reason = %q, want risk-score explanation", o.Reason)
			}
		}
	}
	if dropped == 0 {
		t.Fatal("no packet dropped after roaming to an unknown network")
	}

	// Roaming back re-admits.
	dep.Device().ReportNetwork(NetTrusted)
	out, err = dep.Exercise(app, "download")
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range out {
		if !o.Delivered {
			t.Fatalf("re-trusted download packet %d dropped: %+v", i, o)
		}
	}

	// The context surface is observable: source stats and metric families.
	if st := dep.Context().Stats(); st.Devices != 1 || st.Invalidations["network"] != 2 {
		t.Fatalf("context stats = %+v", st)
	}
	var prom strings.Builder
	if err := dep.Metrics().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{
		"bp_context_evaluations_total",
		"bp_context_invalidations_total",
		"bp_context_devices",
	} {
		if !strings.Contains(prom.String(), family) {
			t.Fatalf("metric family %s missing from scrape", family)
		}
	}
}

// TestDeploymentContextRoundTripsThroughParsePolicy pins the facade-level
// grammar surface: contextual rules survive ParsePolicy → FormatPolicy.
func TestDeploymentContextRoundTripsThroughParsePolicy(t *testing.T) {
	doc := `{[risk][posture]["screen-unlocked"][25]}
{[risk][travel]["impossible"][100]}
{[threshold][warn][40]}
`
	rules, err := ParsePolicy(doc)
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatPolicy(rules); got != doc {
		t.Fatalf("round trip:\n%s\nwant:\n%s", got, doc)
	}
}

// TestCachedVerdictAgeBoundedByFlowTTL: a keep-alive flow admitted inside
// an allowed time window is re-scored once the window closes, whether its
// verdict is cached in the flow table alone or in the dataplane too. Both
// caches expire entries at the flow TTL (default one minute).
func TestCachedVerdictAgeBoundedByFlowTTL(t *testing.T) {
	for _, dataplane := range []bool{false, true} {
		t.Run(fmt.Sprintf("dataplane=%v", dataplane), func(t *testing.T) {
			dep, err := New(Config{
				Policy: PolicyConfig{Doc: `
{[risk][time]["22:00-06:00"][100]}
{[threshold][block][100]}
`},
				Flow: FlowConfig{Dataplane: dataplane, Workers: 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer dep.Close()
			funcs := demoFuncs()
			funcs[0].Op.Requests = 4
			app, err := dep.InstallApp(demoAPK(), funcs)
			if err != nil {
				t.Fatal(err)
			}
			// Monday 14:00: the SYN and first requests are admitted, and the
			// second burst is served from the caches.
			dep.network.Clock.Advance(14 * time.Hour)
			inv, err := app.Invoke("download")
			if err != nil {
				t.Fatal(err)
			}
			syn, reqs := inv.Packets[0], inv.Packets[1:5]
			for _, burst := range [][]*Packet{{syn, reqs[0]}, {reqs[1]}} {
				for i, d := range dep.network.DeliverBatch(burst) {
					if !d.Delivered {
						t.Fatalf("afternoon packet %d dropped: %+v", i, d.Enforcement)
					}
				}
			}
			// 23:00 the same day: the next request on the same connection
			// falls inside the risky window.
			dep.network.Clock.Advance(9 * time.Hour)
			d := dep.network.DeliverBatch([]*Packet{reqs[2]})[0]
			if d.Delivered || d.Enforcement == nil || d.Enforcement.Cause != enforcer.DropRisk {
				t.Fatalf("night request on an afternoon flow: delivered=%v enforcement=%+v", d.Delivered, d.Enforcement)
			}
		})
	}
}
