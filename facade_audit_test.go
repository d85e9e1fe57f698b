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
	st := dep.Stats()
	if st.AuditRecorded != 12 || st.AuditDropped != 0 {
		t.Fatalf("audit stats = recorded %d dropped %d", st.AuditRecorded, st.AuditDropped)
	}
	if st.AuditPending != 0 {
		t.Fatalf("audit pending = %d after flush", st.AuditPending)
	}
	drop := tail[len(tail)-1]
	if drop.Verdict != "drop" || drop.Cause != "policy" {
		t.Fatalf("analytics entry = %+v", drop)
	}

	// Each download connection's FIN tore its flow down via conntrack.
	// The analytics flow was dropped — its FIN died with the rest of the
	// connection — so its drop verdict deliberately stays cached, keeping
	// repeat offenders cheap to block.
	if st.FlowsLive != 1 {
		t.Fatalf("flows live = %d, want 1 (only the dropped analytics flow)", st.FlowsLive)
	}
	if st.ConnsEstablished != 3 || st.ConnsClosed != 3 {
		t.Fatalf("conntrack = est %d closed %d, want 3/3", st.ConnsEstablished, st.ConnsClosed)
	}
	// Per download connection: the SYN misses, request + FIN hit; ports
	// separate the connections so none shares an entry. Analytics: SYN
	// misses, request + FIN hit the cached drop. 4 misses, 8 hits.
	if st.FlowCacheMisses != 4 || st.FlowCacheHits != 8 {
		t.Fatalf("flow stats = hits %d misses %d, want 8/4", st.FlowCacheHits, st.FlowCacheMisses)
	}

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
	st := dep.Stats()
	if st.FlowCacheMisses != 1 || st.FlowCacheHits != 6 {
		t.Fatalf("flow stats = hits %d misses %d, want 6/1", st.FlowCacheHits, st.FlowCacheMisses)
	}
	if st.FlowsLive != 0 {
		t.Fatalf("flows live = %d, want 0 (FIN tore the connection down)", st.FlowsLive)
	}
	if st.ConnsEstablished != 1 || st.ConnsClosed != 1 {
		t.Fatalf("conntrack = est %d closed %d, want 1/1", st.ConnsEstablished, st.ConnsClosed)
	}
	if st.AuditRecorded != 7 {
		t.Fatalf("audit recorded = %d, want 7", st.AuditRecorded)
	}
}
