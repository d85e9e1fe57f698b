package netsim

import (
	"testing"
	"time"

	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/flowtable"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/sanitizer"
)

// TestDeliverBatchMatchesDeliver pushes the same mixed burst through the
// batch path and the scalar path and compares fates, enforcement results,
// captures and server accounting.
func TestDeliverBatchMatchesDeliver(t *testing.T) {
	mk := func(workers int) (*Network, *ipv4.Packet, *ipv4.Packet) {
		enf, apk, db := buildEnforcerAndDB(t)
		gw := NewGateway(GatewayConfig{Enforcer: enf, Sanitizer: sanitizer.New(sanitizer.Config{}), Workers: workers})
		n := newStaticNetwork(ModeTAP, gw)
		return n, taggedPacket(t, apk, db, "sync"), taggedPacket(t, apk, db, "beacon")
	}

	nScalar, benignS, trackerS := mk(1)
	nBatch, benignB, trackerB := mk(2)

	scalarBurst := []*ipv4.Packet{benignS, trackerS, benignS, plainPacket(getRequest()), benignS}
	batchBurst := []*ipv4.Packet{benignB, trackerB, benignB, plainPacket(getRequest()), benignB}

	var want []Delivery
	for _, pkt := range scalarBurst {
		want = append(want, nScalar.Deliver(pkt))
	}
	got := nBatch.DeliverBatch(batchBurst)

	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Delivered != want[i].Delivered || got[i].Stage != want[i].Stage {
			t.Fatalf("pkt %d: batch {%v %v}, scalar {%v %v}",
				i, got[i].Delivered, got[i].Stage, want[i].Delivered, want[i].Stage)
		}
		if (got[i].Enforcement == nil) != (want[i].Enforcement == nil) {
			t.Fatalf("pkt %d: enforcement presence differs", i)
		}
		if got[i].Enforcement != nil && got[i].Enforcement.Verdict != want[i].Enforcement.Verdict {
			t.Fatalf("pkt %d: verdict %v vs %v", i, got[i].Enforcement.Verdict, want[i].Enforcement.Verdict)
		}
		if got[i].Delivered && (got[i].Response == nil || got[i].Response.Status != 200) {
			t.Fatalf("pkt %d: response %+v", i, got[i].Response)
		}
		if got[i].Latency <= 0 {
			t.Fatalf("pkt %d: no latency charged", i)
		}
	}

	// Server accounting matches.
	srvS, _ := nScalar.ServerAt(serverAddr())
	srvB, _ := nBatch.ServerAt(serverAddr())
	if srvS.Requests() != srvB.Requests() {
		t.Fatalf("server requests: scalar %d, batch %d", srvS.Requests(), srvB.Requests())
	}
	// Post-gateway capture holds only sanitized survivors.
	for _, pkt := range nBatch.CaptureAt(CapturePostGateway).Packets() {
		if pkt.Header.HasOptions() {
			t.Fatal("post-gateway capture holds an unsanitized packet")
		}
	}
}

// TestDeliverBatchAmortizesQueueHop: a burst pays the NFQUEUE transition
// once, so its total virtual time undercuts per-packet delivery.
func TestDeliverBatchAmortizesQueueHop(t *testing.T) {
	mk := func() (*Network, *ipv4.Packet) {
		enf, apk, db := buildEnforcerAndDB(t)
		gw := NewGateway(GatewayConfig{Enforcer: enf, Sanitizer: sanitizer.New(sanitizer.Config{})})
		n := newStaticNetwork(ModeTAP, gw)
		return n, taggedPacket(t, apk, db, "sync")
	}
	nScalar, pktS := mk()
	nBatch, pktB := mk()

	const burst = 16
	startS := nScalar.Clock.Now()
	for i := 0; i < burst; i++ {
		if d := nScalar.Deliver(pktS); !d.Delivered {
			t.Fatalf("scalar pkt %d dropped: %+v", i, d)
		}
	}
	scalarTotal := nScalar.Clock.Now() - startS

	pkts := make([]*ipv4.Packet, burst)
	for i := range pkts {
		pkts[i] = pktB
	}
	startB := nBatch.Clock.Now()
	for i, d := range nBatch.DeliverBatch(pkts) {
		if !d.Delivered {
			t.Fatalf("batch pkt %d dropped: %+v", i, d)
		}
	}
	batchTotal := nBatch.Clock.Now() - startB

	if batchTotal >= scalarTotal {
		t.Fatalf("batch burst %v must undercut scalar %v", batchTotal, scalarTotal)
	}
}

// TestDeliverChargesLatencyModel pins the exact virtual time a delivered
// and a gateway-dropped packet pay, in terms of the LatencyModel fields.
// A delivery pays the NIC, the queue hop into the reader, enforcement,
// sanitizing, the wire and the server, and the response's reinjection
// hop. A gateway drop pays up to the reader only: its gateway delivered
// nothing, so nothing is reinjected.
func TestDeliverChargesLatencyModel(t *testing.T) {
	enf, apk, db := buildEnforcerAndDB(t)
	gw := NewGateway(GatewayConfig{Enforcer: enf, Sanitizer: sanitizer.New(sanitizer.Config{})})
	n := newStaticNetwork(ModeTAP, gw)
	m := n.Model
	benign := taggedPacket(t, apk, db, "sync")
	tracker := taggedPacket(t, apk, db, "beacon")

	perPkt := m.TapPerPacket + m.EnforcerPerPacket + m.SanitizerPerPacket
	dropped := perPkt + m.NFQueueHopPerPacket
	delivered := dropped + 2*(m.WireRTT/2) + m.ServerProcessing + m.NFQueueHopPerPacket
	mixed := 2*perPkt + m.NFQueueHopPerPacket + 2*(m.WireRTT/2) + m.ServerProcessing + m.NFQueueHopPerPacket

	check := func(name string, ds []Delivery, want time.Duration, wantDelivered ...bool) {
		t.Helper()
		for i, d := range ds {
			if d.Delivered != wantDelivered[i] {
				t.Fatalf("%s pkt %d: delivered=%v, want %v", name, i, d.Delivered, wantDelivered[i])
			}
			if d.Latency != want {
				t.Fatalf("%s pkt %d: latency %v, want %v", name, i, d.Latency, want)
			}
		}
	}
	check("Deliver benign", []Delivery{n.Deliver(benign)}, delivered, true)
	check("Deliver tracker", []Delivery{n.Deliver(tracker)}, dropped, false)
	check("DeliverBatch benign", n.DeliverBatch([]*ipv4.Packet{benign}), delivered, true)
	check("DeliverBatch tracker", n.DeliverBatch([]*ipv4.Packet{tracker}), dropped, false)
	check("DeliverBatch mixed", n.DeliverBatch([]*ipv4.Packet{benign, tracker}), mixed, true, false)
}

// TestDeliverBatchEmpty is the trivial edge.
func TestDeliverBatchEmpty(t *testing.T) {
	n := newStaticNetwork(ModeTAP, nil)
	if out := n.DeliverBatch(nil); len(out) != 0 {
		t.Fatalf("out = %v", out)
	}
}

// TestGatewayProcessBatchFlowCache: with a flow cache on the enforcer,
// repeated batches of one flow drive the policy engine exactly once.
func TestGatewayProcessBatchFlowCache(t *testing.T) {
	enf0, apk, db := buildEnforcerAndDB(t)
	flows := enforcer.NewFlowCache(flowtable.Config{Capacity: 1024})
	enf := enforcer.New(enforcer.Config{Flows: flows}, db, enf0.Engine())
	gw := NewGateway(GatewayConfig{Enforcer: enf, Sanitizer: sanitizer.New(sanitizer.Config{}), Workers: 2})

	pkt := taggedPacket(t, apk, db, "sync")
	burst := make([]*ipv4.Packet, 32)
	for i := range burst {
		burst[i] = pkt
	}
	for round := 0; round < 4; round++ {
		out, err := gw.ProcessBatch(burst)
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range out {
			if o.Out == nil || o.Result == nil || o.Result.Verdict != policy.VerdictAllow {
				t.Fatalf("round %d pkt %d: %+v", round, i, o)
			}
			if o.Out.Header.HasOptions() {
				t.Fatalf("round %d pkt %d: not sanitized", round, i)
			}
		}
	}
	if evals := enf.Engine().Stats().Evaluations; evals != 1 {
		t.Fatalf("policy evaluations = %d, want 1 (flow cache + memo)", evals)
	}
	st := enf.Stats()
	if st.Processed != 128 {
		t.Fatalf("processed = %d", st.Processed)
	}
	if st.Flow.Hits+st.BatchMemoHits != 127 {
		t.Fatalf("hits %d + memo %d != 127", st.Flow.Hits, st.BatchMemoHits)
	}
}
