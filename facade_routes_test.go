package borderpatrol

import (
	"bytes"
	"strings"
	"testing"
)

func TestExerciseViaRoutes(t *testing.T) {
	var auditBuf bytes.Buffer
	dep, err := New(Config{
		Policy: PolicyConfig{Doc: `{[deny][library]["com/flurry"]}`},
		Audit:  AuditConfig{Writer: &auditBuf},
	})
	if err != nil {
		t.Fatal(err)
	}
	app, err := dep.InstallApp(demoAPK(), demoFuncs())
	if err != nil {
		t.Fatal(err)
	}

	// Off-premises work traffic over VPN is still enforced: the whole
	// analytics connection (SYN, data, FIN) dies at the gateway.
	out, err := dep.ExerciseVia(app, "analytics", RouteVPN)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range out {
		if o.Delivered {
			t.Fatalf("vpn-routed analytics packet %d escaped enforcement", i)
		}
	}
	out, err = dep.ExerciseVia(app, "download", RouteVPN)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range out {
		if !o.Delivered {
			t.Fatalf("vpn-routed download packet %d blocked", i)
		}
	}

	// Mobile-routed tagged traffic dies at the carrier border (options
	// survive because no sanitizer ran).
	out, err = dep.ExerciseVia(app, "download", RouteMobile)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Delivered {
		t.Fatal("tagged mobile traffic crossed an RFC 7126 border")
	}
	if out[0].DropStage != "border-router" {
		t.Fatalf("drop stage = %s", out[0].DropStage)
	}

	// The audit log captured the enforced (gateway) decisions: two VPN
	// connections × 3 packets each (the mobile route never reaches the
	// gateway).
	tail := dep.AuditTail()
	if len(tail) != 6 {
		t.Fatalf("audit tail has %d entries, want 6 (vpn analytics + vpn download, 3 packets each)", len(tail))
	}
	if tail[0].Verdict != "drop" || !strings.Contains(tail[0].Rule, "com/flurry") {
		t.Fatalf("audit entry = %+v", tail[0])
	}
	if !strings.Contains(auditBuf.String(), `"verdict":"drop"`) {
		t.Fatal("audit writer did not receive JSON lines")
	}
}
