package borderpatrol

import (
	"bytes"
	"testing"
)

// TestAuditPipelineEndToEnd drives the facade and checks the asynchronous
// audit pipeline: every enforced packet is recorded, nothing is shed at
// this scale, entries reach the writer on flush, and Close is clean.
func TestAuditPipelineEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	dep, err := New(Config{
		Policy: PolicyConfig{Doc: `{[deny][library]["com/flurry"]}`},
		Audit:  AuditConfig{Writer: &buf},
	})
	if err != nil {
		t.Fatal(err)
	}
	app, err := dep.InstallApp(demoAPK(), demoFuncs())
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 3; i++ {
		if _, err := dep.Exercise(app, "download"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dep.Exercise(app, "analytics"); err != nil {
		t.Fatal(err)
	}

	// Every packet of every connection is audited: 3 download connections
	// × (SYN + request + FIN) + 1 analytics connection × 3 = 12.
	tail := dep.AuditTail() // flushes the pipeline
	if len(tail) != 12 {
		t.Fatalf("audit tail has %d entries, want 12", len(tail))
	}
	recorded := metricValue(t, dep, "bp_audit_recorded_total")
	shed := metricValue(t, dep, "bp_audit_dropped_total")
	if recorded != 12 || shed != 0 {
		t.Fatalf("audit = recorded %v dropped %v", recorded, shed)
	}
	if v := metricValue(t, dep, "bp_audit_queue_depth"); v != 0 {
		t.Fatalf("audit pending = %v after flush", v)
	}
	drop := tail[len(tail)-1]
	if drop.Verdict != "drop" || drop.Cause != "policy" {
		t.Fatalf("analytics entry = %+v", drop)
	}

	// Each download connection's FIN tore its flow down via conntrack.
	// The analytics flow was dropped — its FIN died with the rest of the
	// connection — so its drop verdict deliberately stays cached, keeping
	// repeat offenders cheap to block.
	if v := metricValue(t, dep, "bp_flowtable_live"); v != 1 {
		t.Fatalf("flows live = %v, want 1 (only the dropped analytics flow)", v)
	}
	assertConntrack(t, dep, 3, 3)
	// Per download connection: the SYN misses, request + FIN hit; ports
	// separate the connections so none shares an entry. Analytics: SYN
	// misses, request + FIN hit the cached drop. 4 misses, 8 hits.
	assertFlowCache(t, dep, 8, 4)

	if err := dep.Close(); err != nil {
		t.Fatal(err)
	}
	entries := buf.String()
	if entries == "" {
		t.Fatal("audit writer received nothing")
	}
}

// TestKeepAliveFlowsStayCachedEndToEnd: a multi-request functionality
// rides one TCP connection — the SYN pays the pipeline once, the whole
// keep-alive train hits the cache, and the FIN (not any application-layer
// header) tears the flow down at the end of the connection.
func TestKeepAliveFlowsStayCachedEndToEnd(t *testing.T) {
	dep, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	funcs := demoFuncs()
	funcs[0].Op.Requests = 5 // keep-alive train on one socket
	app, err := dep.InstallApp(demoAPK(), funcs)
	if err != nil {
		t.Fatal(err)
	}
	out, err := dep.Exercise(app, "download")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 7 {
		t.Fatalf("outcomes = %d, want 7 (SYN + 5 requests + FIN)", len(out))
	}
	assertFlowCache(t, dep, 6, 1)
	if v := metricValue(t, dep, "bp_flowtable_live"); v != 0 {
		t.Fatalf("flows live = %v, want 0 (FIN tore the connection down)", v)
	}
	assertConntrack(t, dep, 1, 1)
	if v := metricValue(t, dep, "bp_audit_recorded_total"); v != 7 {
		t.Fatalf("audit recorded = %v, want 7", v)
	}
}

// assertFlowCache checks the verdict-cache hit and miss totals. Hits count
// the flow table and the batch drain's same-flow memo together.
func assertFlowCache(t *testing.T, dep *Deployment, hits, misses float64) {
	t.Helper()
	h := metricValue(t, dep, "bp_flowtable_hits_total") + metricValue(t, dep, "bp_enforcer_batch_memo_hits_total")
	m := metricValue(t, dep, "bp_flowtable_misses_total")
	if h != hits || m != misses {
		t.Fatalf("flow cache = hits %v misses %v, want %v/%v", h, m, hits, misses)
	}
}

// assertConntrack checks the gateway conntrack's established and closed
// transition totals.
func assertConntrack(t *testing.T, dep *Deployment, established, closed float64) {
	t.Helper()
	est := metricValue(t, dep, `bp_conntrack_transitions_total{kind="established"}`)
	cl := metricValue(t, dep, `bp_conntrack_transitions_total{kind="closed"}`)
	if est != established || cl != closed {
		t.Fatalf("conntrack = est %v closed %v, want %v/%v", est, cl, established, closed)
	}
}
