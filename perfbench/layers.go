package main

import (
	"fmt"
	"time"

	"borderpatrol/internal/audit"
	"borderpatrol/internal/contextmgr"
	"borderpatrol/internal/dataplane"
	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/netsim"
	"borderpatrol/internal/policy"
)

// counts are the warm-up figures that must repeat exactly for one seed
// and differ between seeds.
type counts struct {
	Packets            int64  `json:"packets"`
	Delivered          int64  `json:"delivered"`
	PolicyDrops        int64  `json:"policy_drops"`
	UntaggedDrops      int64  `json:"untagged_drops"`
	Evaluations        uint64 `json:"policy_evaluations"`
	ContextEvaluations uint64 `json:"context_evaluations"`
	Established        uint64 `json:"conntrack_established"`
}

func (c counts) String() string {
	return fmt.Sprintf("packets=%d delivered=%d policy_drops=%d untagged_drops=%d evaluations=%d context_evaluations=%d established=%d",
		c.Packets, c.Delivered, c.PolicyDrops, c.UntaggedDrops, c.Evaluations, c.ContextEvaluations, c.Established)
}

func countsOf(g *generator) counts {
	eng := g.d.tb.Engine.Stats()
	return counts{
		Packets:            g.packets,
		Delivered:          g.delivered,
		PolicyDrops:        g.drops[enforcer.DropPolicy],
		UntaggedDrops:      g.drops[enforcer.DropUntagged],
		Evaluations:        eng.Evaluations,
		ContextEvaluations: eng.RiskEvaluations,
		Established:        g.d.tb.Network.Gateway.Conntrack().Established,
	}
}

// layerSnap is every counter the per-layer metrics are differences of,
// read through the layers' Stats methods and the metrics registry.
type layerSnap struct {
	enf   enforcer.Stats
	dp    dataplane.Stats
	eng   policy.Stats
	ct    netsim.ConntrackStats
	audit audit.Stats
	cm    contextmgr.Stats
	hist  map[string]metrics.HistogramSnapshot
}

// Histograms scraped from the registry.
const (
	histMiss = "bp_enforcer_cache_miss_latency_ns"
	histEval = "bp_enforcer_evaluate_latency_ns"
	histSwap = "bp_policy_swap_latency_ns"
	// histStandbySwap keys the standby store's swap histogram.
	histStandbySwap = "standby/" + histSwap
)

func snapshot(d *deployment) layerSnap {
	tb := d.tb
	s := layerSnap{
		enf:   tb.Enforcer.Stats(),
		eng:   tb.Engine.Stats(),
		ct:    tb.Network.Gateway.Conntrack(),
		audit: tb.Audit.Stats(),
		cm:    tb.Manager.Stats(),
		hist:  map[string]metrics.HistogramSnapshot{},
	}
	if dp := tb.Network.Gateway.Dataplane(); dp != nil {
		s.dp = dp.Stats()
	}
	for _, smp := range tb.Metrics.Snapshot() {
		switch smp.Name {
		case histMiss, histEval, histSwap:
			if smp.Hist != nil {
				s.hist[smp.Name] = *smp.Hist
			}
		}
	}
	for _, smp := range d.standbyMetrics.Snapshot() {
		if smp.Name == histSwap && smp.Hist != nil {
			s.hist[histStandbySwap] = *smp.Hist
		}
	}
	return s
}

// histQuantile is the q-quantile of the observations recorded between two
// snapshots of one histogram.
func histQuantile(before, after layerSnap, name string, q float64) float64 {
	a, b := before.hist[name], after.hist[name]
	var d metrics.HistogramSnapshot
	for i := range d.Counts {
		d.Counts[i] = b.Counts[i] - a.Counts[i]
	}
	return float64(d.Quantile(q))
}

// traceTotals is the tracer's accounting frozen at the end of the traced
// loop (the pushes that top up the push samples come after it).
type traceTotals struct {
	count, total, self [numKinds]int64
	wall               [numLayers]int64
	probes, handled    int64
	auditNs, records   int64
}

func (t *tracer) totals() traceTotals {
	t.auditMu.Lock()
	defer t.auditMu.Unlock()
	return traceTotals{
		count: t.count, total: t.total, self: t.self, wall: t.wall,
		probes: t.probes, handled: t.handled,
		auditNs: t.auditNs, records: t.auditRecords,
	}
}

// ledgerRow is one layer's share of the traced loop.
type ledgerRow struct {
	Layer        string  `json:"layer"`
	WallNsPerPkt float64 `json:"wall_ns_per_pkt"`
	WallShare    float64 `json:"wall_share"`
	SelfNsPerPkt float64 `json:"self_ns_per_pkt"`
}

// ledger reconciles the layers with the traced end-to-end wall time.
// Each layer's wall time is its spans' self time, except that the time
// concurrent drain workers cover together is shared among their layers
// in proportion to their self times; the gap is loop time no span
// covers. Self times are as the rule defines them, so concurrent workers
// each count in full there. audit runs off the request path on its own
// goroutine and is listed, not summed.
type ledger struct {
	WallS            float64     `json:"wall_s"`
	Packets          int64       `json:"packets"`
	Layers           []ledgerRow `json:"layers"`
	E2ENsPerPkt      float64     `json:"e2e_ns_per_pkt"`
	LayersNsPerPkt   float64     `json:"layers_ns_per_pkt"`
	GapNsPerPkt      float64     `json:"gap_ns_per_pkt"`
	Residual         float64     `json:"residual"`
	UntracedNsPerPkt float64     `json:"untraced_ns_per_pkt"`
	Tolerance        float64     `json:"tolerance"`
	SpansDropped     int64       `json:"spans_not_dumped"`
}

func buildLedger(traced, untraced phase, tt traceTotals, spansDropped int64) *ledger {
	pk := float64(traced.tally.packets)
	l := &ledger{
		WallS:            traced.wall.Seconds(),
		Packets:          traced.tally.packets,
		E2ENsPerPkt:      float64(traced.wall.Nanoseconds()) / pk,
		UntracedNsPerPkt: float64(untraced.wall.Nanoseconds()) / float64(untraced.tally.packets),
		Tolerance:        ledgerTolerance,
		SpansDropped:     spansDropped,
	}
	var selfByLayer [numLayers]int64
	for k := range kinds {
		selfByLayer[kinds[k].layer] += tt.self[k]
	}
	selfByLayer[layerAudit] = tt.auditNs
	var sum int64
	for layer := range layerNames {
		if layer != layerAudit {
			sum += tt.wall[layer]
		}
		l.Layers = append(l.Layers, ledgerRow{
			Layer:        layerNames[layer],
			WallNsPerPkt: float64(tt.wall[layer]) / pk,
			WallShare:    float64(tt.wall[layer]) / float64(traced.wall.Nanoseconds()),
			SelfNsPerPkt: float64(selfByLayer[layer]) / pk,
		})
	}
	l.LayersNsPerPkt = float64(sum) / pk
	gap := traced.wall.Nanoseconds() - sum
	l.GapNsPerPkt = float64(gap) / pk
	l.Residual = float64(abs(gap)) / float64(traced.wall.Nanoseconds())
	return l
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// perLayer computes the per-layer metrics of the traced phase.
func perLayer(pushLive bool, untraced, traced phase, tr *tracer, tt traceTotals, before, after, afterPushes layerSnap,
	det counts, m machine) (map[string]metricValue, *ledger, error) {
	if traced.tally.packets == 0 || untraced.tally.packets == 0 {
		return nil, nil, fmt.Errorf("traced run delivered no packets")
	}
	out := map[string]metricValue{}
	set := func(name string, v float64, unit string) { out[name] = metricValue{v, unit} }
	ratio := func(n, d float64) float64 {
		if d == 0 {
			return 0
		}
		return n / d
	}
	pk := float64(traced.tally.packets)
	conns := float64(traced.tally.conns)

	set("android.invoke_ns_per_conn", ratio(float64(tt.total[kindInvoke]), float64(tt.count[kindInvoke])), "ns")
	set("contextmgr.stacks_per_conn", ratio(float64(after.cm.SocketsTagged-before.cm.SocketsTagged), conns), "ratio")

	set("netsim.deliver_self_ns_per_pkt", float64(tt.self[kindDeliver])/pk, "ns")
	set("netsim.delivered_ratio", float64(traced.tally.delivered)/pk, "ratio")
	set("conntrack.established", float64(after.ct.Established-before.ct.Established), "count")
	set("conntrack.open", float64(after.ct.Open), "count")

	set("gateway.drain_ns_per_pkt", float64(tt.total[kindDrain])/pk, "ns")
	dpHits := (after.dp.Hits + after.dp.RuleHits) - (before.dp.Hits + before.dp.RuleHits)
	dpMisses := after.dp.Misses - before.dp.Misses
	processed := after.enf.Processed - before.enf.Processed
	set("gateway.unaccounted_pkts", pk-float64(processed+dpHits), "count")

	set("dataplane.probe_ns", ratio(float64(tt.total[kindProbe]), float64(tt.probes)), "ns")
	set("dataplane.hit_ratio", ratio(float64(dpHits), float64(dpHits+dpMisses)), "ratio")
	set("dataplane.admission_skip_ratio",
		ratio(float64(after.dp.AdmissionSkips-before.dp.AdmissionSkips), float64(dpMisses)), "ratio")

	set("enforcer.handler_ns_per_pkt", ratio(float64(tt.total[kindHandler]), float64(tt.handled)), "ns")
	set("enforcer.batch_memo_hits", float64(after.enf.BatchMemoHits-before.enf.BatchMemoHits), "count")
	fa, fb := after.enf.Flow, before.enf.Flow
	set("flowtable.hit_ratio", ratio(float64(fa.Hits-fb.Hits), float64(fa.Hits-fb.Hits+fa.Misses-fb.Misses)), "ratio")
	set("flowtable.live", float64(fa.Live), "count")
	set("flowtable.evictions", float64(fa.Evictions-fb.Evictions), "count")
	set("flowtable.stale_drops", float64(fa.StaleDrops-fb.StaleDrops), "count")
	set("enforcer.miss_p50_ns", histQuantile(before, after, histMiss, 0.5), "ns")
	set("enforcer.evaluate_p50_ns", histQuantile(before, after, histEval, 0.5), "ns")
	set("policy.evaluations_per_pkt", float64(after.eng.Evaluations-before.eng.Evaluations)/pk, "ratio")
	set("policy.context_evaluations_per_conn",
		ratio(float64(after.eng.RiskEvaluations-before.eng.RiskEvaluations), conns), "ratio")

	// Push figures take the in-loop pushes (to whichever store the
	// workload pushes to) and any top-up pushes after the loop.
	reloads := sortedNs(tr.reloadNs, time.Nanosecond)
	set("policystore.reload_ns", median(reloads), "ns")
	swap := histStandbySwap
	if pushLive {
		swap = histSwap
	}
	set("policy.swap_p50_ns", histQuantile(before, afterPushes, swap, 0.5), "ns")

	recorded := after.audit.Recorded - before.audit.Recorded
	dropped := after.audit.Dropped - before.audit.Dropped
	set("audit.records_per_pkt", float64(recorded)/pk, "ratio")
	set("audit.drop_ratio", ratio(float64(dropped), float64(recorded+dropped)), "ratio")
	set("audit.write_ns_per_record", ratio(float64(tt.auditNs), float64(tt.records)), "ns")

	gcCPU := traced.rt1.gcCPU - traced.rt0.gcCPU
	totalCPU := traced.rt1.totalCPU - traced.rt0.totalCPU
	set("runtime.gc_cpu_share", ratio(gcCPU, totalCPU), "ratio")
	set("runtime.gc_cycles", float64(traced.rt1.gcCycles-traced.rt0.gcCycles), "count")

	l := buildLedger(traced, untraced, tt, tr.dropped)
	set("ledger.e2e_ns_per_pkt", l.E2ENsPerPkt, "ns")
	set("ledger.layers_ns_per_pkt", l.LayersNsPerPkt, "ns")
	set("ledger.residual_ratio", l.Residual, "ratio")
	set("ledger.bench_share", l.Layers[layerBench].WallShare, "ratio")
	set("trace.overhead_ns_per_pkt", l.E2ENsPerPkt-l.UntracedNsPerPkt, "ns")
	set("trace.overhead_ratio", ratio(l.E2ENsPerPkt-l.UntracedNsPerPkt, l.UntracedNsPerPkt), "ratio")

	set("count.packets", float64(det.Packets), "count")
	set("count.policy_drops", float64(det.PolicyDrops), "count")
	set("count.evaluations", float64(det.Evaluations), "count")
	set("machine.calibration_ns_per_op", m.CalibNsPerOp, "ns")
	set("machine.cpu_per_pkt_calib_ops",
		ratio(float64(untraced.cpu.Nanoseconds())/float64(untraced.tally.packets), m.CalibNsPerOp), "ratio")
	return out, l, nil
}
