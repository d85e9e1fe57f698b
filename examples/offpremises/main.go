// Offpremises demonstrates the paper's §VII deployment story for devices
// that leave the building: the BYOD framework forces work-profile traffic
// through the corporate VPN, so BorderPatrol's gateway still enforces every
// packet, while the enforcement audit trail records each decision for the
// administrators managing policy centrally.
//
// Run with: go run ./examples/offpremises
package main

import (
	"fmt"
	"log"
	"net/netip"
	"os"

	"borderpatrol"
)

func main() {
	dep, err := borderpatrol.New(borderpatrol.Config{
		Policy: borderpatrol.PolicyConfig{Doc: `{[deny][library]["com/flurry"]}`},
		// JSON lines, one per enforcement decision.
		Audit: borderpatrol.AuditConfig{Writer: os.Stdout},
	})
	if err != nil {
		log.Fatal(err)
	}
	// Flush the async audit pipeline (JSON lines above) before exiting.
	defer dep.Close()

	apk := &borderpatrol.APK{
		PackageName: "com.corp.mail",
		Label:       "Corp Mail",
		Category:    "BUSINESS",
		VersionCode: 12,
		Dexes: []*borderpatrol.DexFile{{
			Classes: []borderpatrol.ClassDef{
				{
					Package: "com/corp/mail",
					Name:    "Inbox",
					Methods: []borderpatrol.MethodDef{
						{Name: "fetch", Proto: "()V", File: "Inbox.java", StartLine: 10, EndLine: 30},
					},
				},
				{
					Package: "com/flurry/sdk",
					Name:    "Agent",
					Methods: []borderpatrol.MethodDef{
						{Name: "beacon", Proto: "()V", File: "Agent.java", StartLine: 5, EndLine: 20},
					},
				},
			},
		}},
	}
	ep := netip.AddrPortFrom(netip.MustParseAddr("198.18.90.1"), 443)
	app, err := dep.InstallApp(apk, []borderpatrol.Functionality{
		{
			Name:      "fetch-mail",
			Desirable: true,
			CallPath:  []borderpatrol.Frame{{Class: "com/corp/mail/Inbox", Method: "fetch", File: "Inbox.java", Line: 15}},
			Op:        borderpatrol.NetOp{Endpoint: ep, Host: "mail.corp", Method: "GET"},
		},
		{
			Name:     "analytics",
			CallPath: []borderpatrol.Frame{{Class: "com/flurry/sdk/Agent", Method: "beacon", File: "Agent.java", Line: 8}},
			Op:       borderpatrol.NetOp{Endpoint: ep, Host: "data.flurry.com", Method: "POST", PayloadBytes: 256},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Fprintln(os.Stderr, "== employee leaves the building; work traffic now tunnels over VPN ==")
	show := func(name string, route borderpatrol.Route) {
		out, err := dep.ExerciseVia(app, name, route)
		if err != nil {
			log.Fatal(err)
		}
		status := "DELIVERED"
		if !out[0].Delivered {
			status = "DROPPED at " + out[0].DropStage
		}
		fmt.Fprintf(os.Stderr, "%-12s via %-6s -> %s\n", name, route, status)
	}

	// Work traffic over VPN: still enforced by the corporate gateway.
	show("fetch-mail", borderpatrol.RouteVPN)
	show("analytics", borderpatrol.RouteVPN)

	// A tagged packet that leaks onto the mobile path never reaches the
	// sanitizer, so the carrier's RFC 7126 filtering drops it: context
	// information cannot escape unsanitized.
	show("fetch-mail", borderpatrol.RouteMobile)

	fmt.Fprintf(os.Stderr, "\naudit trail (%d gateway decisions, JSON above):\n", len(dep.AuditTail()))
	for _, e := range dep.AuditTail() {
		fmt.Fprintf(os.Stderr, "  #%d %s -> %s  verdict=%s cause=%s\n", e.Seq, e.Src, e.Dst, e.Verdict, e.Cause)
	}
}
