package dataplane

import (
	"fmt"
	"net/netip"
	"testing"

	"borderpatrol/internal/analyzer"
	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/flowtable"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/kernel"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/tag"
	"borderpatrol/internal/transport"
)

// benchSetup builds a flow-cached enforcer against the §VI-B1
// validation-scale rule set (1,050 library deny rules — none hash-
// decisive, so hits come from promoted flow entries, not the rule stage)
// plus one benign keep-alive packet, mirroring the enforcer package's
// benchEnforcer so the numbers compare across layers.
func benchSetup(b *testing.B) (*enforcer.Enforcer, *ipv4.Packet) {
	b.Helper()
	apk := testAPK()
	db := analyzer.NewDatabase()
	if err := db.Add(apk); err != nil {
		b.Fatal(err)
	}
	rules := make([]policy.Rule, 0, 1050)
	for i := 0; i < 1050; i++ {
		rules = append(rules, policy.Rule{
			Action: policy.Deny,
			Level:  policy.LevelLibrary,
			Target: fmt.Sprintf("com/blocked/lib%04d", i),
		})
	}
	eng, err := policy.NewEngine(rules, policy.VerdictAllow)
	if err != nil {
		b.Fatal(err)
	}
	enf := enforcer.New(enforcer.Config{
		Flows: enforcer.NewFlowCache(flowtable.Config{Capacity: 65536}),
	}, db, eng)

	tg := tag.Tag{AppHash: apk.Truncated(), Indexes: []uint32{0, 1}}
	payload, err := tg.Encode()
	if err != nil {
		b.Fatal(err)
	}
	seg := transport.TCPSegment{
		SrcPort: 40001, DstPort: 443, Seq: 1,
		Flags: transport.FlagPSH | transport.FlagACK, Window: 65535,
		Payload: []byte("POST /x HTTP/1.1\r\n\r\n"),
	}
	pkt := &ipv4.Packet{
		Header: ipv4.Header{
			TTL:      64,
			Protocol: ipv4.ProtoTCP,
			Src:      netip.MustParseAddr("10.66.0.2"),
			Dst:      netip.MustParseAddr("93.184.216.34"),
		},
		Payload: seg.Marshal(),
	}
	pkt.Header.SetOption(ipv4.Option{Type: ipv4.OptSecurity, Data: payload})
	return enf, pkt
}

// warmCore promotes the packet (twice, which lands it under any admission
// rule) so every later Probe is a hit.
func warmCore(b *testing.B, enf *enforcer.Enforcer, core kernel.DataplaneCore, pkt *ipv4.Packet) {
	b.Helper()
	res := enf.Process(pkt)
	core.Promote(pkt, kernel.VerdictAccept, &res)
	core.Promote(pkt, kernel.VerdictAccept, &res)
	if _, _, ok := core.Probe(pkt); !ok {
		b.Fatal("warm-up did not land")
	}
}

// BenchmarkDataplaneProbeHit is the raw fast path: key extraction, one
// flat-table probe, the generation check, and the forward-seq update —
// the whole per-packet cost of an established flow below the enforcer.
func BenchmarkDataplaneProbeHit(b *testing.B) {
	enf, pkt := benchSetup(b)
	dp := New(Config{Cores: 1}, enf)
	core := dp.Acquire()
	defer core.Release()
	warmCore(b, enf, core, pkt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v, _, ok := core.Probe(pkt); !ok || v != kernel.VerdictAccept {
			b.Fatal("miss on warmed core")
		}
	}
}

// BenchmarkDataplaneParallel drives one warmed flow per leased core from
// every proc (run with -cpu 1,4,16,64). Cores share no mutable state —
// the only cross-core traffic is the read-only generation load — so
// ns/op must stay flat as procs grow; any slope is a sharing bug.
func BenchmarkDataplaneParallel(b *testing.B) {
	enf, pkt := benchSetup(b)
	dp := New(Config{Cores: 64}, enf)
	enf.Process(pkt) // fill the flow cache once; promotions reuse it
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		core := dp.Acquire()
		if core == nil {
			b.Error("no free core")
			return
		}
		defer core.Release()
		res := enf.Process(pkt)
		core.Promote(pkt, kernel.VerdictAccept, &res)
		core.Promote(pkt, kernel.VerdictAccept, &res)
		for pb.Next() {
			if _, _, ok := core.Probe(pkt); !ok {
				b.Error("miss on warmed core")
				return
			}
		}
	})
}

// keepAliveNetfilter assembles the gateway-shaped kernel stack: an
// NFQUEUE 1 batch handler over the enforcer, optionally fronted by the
// match-action stage.
func keepAliveNetfilter(b *testing.B, withDP bool) (*kernel.Netfilter, []*ipv4.Packet) {
	b.Helper()
	enf, pkt := benchSetup(b)
	nf := kernel.NewNetfilter()
	nf.RegisterBatchQueue(1, func(pkts []*ipv4.Packet) []kernel.BatchVerdict {
		results := enf.ProcessBatch(pkts, nil)
		out := make([]kernel.BatchVerdict, len(pkts))
		for i := range results {
			out[i] = kernel.BatchVerdict{Verdict: kernel.VerdictAccept, Aux: &results[i]}
			if results[i].Verdict == policy.VerdictDrop {
				out[i].Verdict = kernel.VerdictDrop
			}
		}
		return out
	})
	if withDP {
		nf.RegisterDataplane(1, New(Config{Cores: 1}, enf))
	}
	nf.Append(kernel.ChainOutput, kernel.Rule{Target: kernel.TargetQueue, QueueNum: 1})
	batch := make([]*ipv4.Packet, 64)
	for i := range batch {
		batch[i] = pkt
	}
	// Two warm batches: flow-cache fill and promotion, so the timed loop
	// is all table hits.
	for i := 0; i < 2; i++ {
		if _, err := nf.OutputBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	return nf, batch
}

// BenchmarkDataplaneBatchKeepAlive pushes 64-packet keep-alive trains
// through the full kernel batch traversal with the match-action stage
// installed: every packet is answered by a core-local table probe and
// never crosses into the enforcer. Reported ns/op is per packet; the
// baseline to beat is BenchmarkProcessBatchKeepAlive's ~45 ns enforcer
// memo path (and BenchmarkKernelBatchKeepAlive below, the same traversal
// without the stage).
func BenchmarkDataplaneBatchKeepAlive(b *testing.B) {
	nf, batch := keepAliveNetfilter(b, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(batch) {
		res, err := nf.OutputBatch(batch)
		if err != nil || res[0].Out == nil {
			b.Fatal("keep-alive packet lost")
		}
	}
}

// BenchmarkKernelBatchKeepAlive is the same traversal handler-only — the
// before/after comparison for the match-action stage.
func BenchmarkKernelBatchKeepAlive(b *testing.B) {
	nf, batch := keepAliveNetfilter(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(batch) {
		res, err := nf.OutputBatch(batch)
		if err != nil || res[0].Out == nil {
			b.Fatal("keep-alive packet lost")
		}
	}
}
