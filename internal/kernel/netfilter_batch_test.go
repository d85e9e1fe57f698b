package kernel

import (
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"testing"

	"borderpatrol/internal/ipv4"
)

// perPacket adapts a one-packet verdict function to a batch queue handler.
func perPacket(f func(pkt *ipv4.Packet) (Verdict, *ipv4.Packet)) QueueBatchHandler {
	return func(pkts []*ipv4.Packet) []BatchVerdict {
		out := make([]BatchVerdict, len(pkts))
		for i, pkt := range pkts {
			v, rw := f(pkt)
			out[i] = BatchVerdict{Verdict: v, Rewritten: rw}
		}
		return out
	}
}

func batchPkt(i int, payload string) *ipv4.Packet {
	return &ipv4.Packet{
		Header: ipv4.Header{
			TTL:      64,
			Protocol: ipv4.ProtoTCP,
			Src:      netip.MustParseAddr("10.66.0.2"),
			Dst:      netip.AddrFrom4([4]byte{93, 184, byte(i >> 8), byte(i)}),
		},
		Payload: []byte(payload),
	}
}

// TestOutputBatchMatchesScalar runs the same packets through Output (one
// packet per call) and OutputBatch against a queue whose handler drops
// "evil" payloads, and requires identical fates.
func TestOutputBatchMatchesScalar(t *testing.T) {
	mk := func() *Netfilter {
		nf := NewNetfilter()
		nf.Append(ChainOutput, Rule{Target: TargetQueue, QueueNum: 1})
		drop := func(pkt *ipv4.Packet) bool { return string(pkt.Payload) == "evil" }
		nf.RegisterBatchQueue(1, func(pkts []*ipv4.Packet) []BatchVerdict {
			out := make([]BatchVerdict, len(pkts))
			for i, pkt := range pkts {
				if drop(pkt) {
					out[i] = BatchVerdict{Verdict: VerdictDrop}
				} else {
					out[i] = BatchVerdict{Verdict: VerdictAccept, Aux: i}
				}
			}
			return out
		})
		return nf
	}

	var pkts []*ipv4.Packet
	for i := 0; i < 16; i++ {
		payload := "ok"
		if i%3 == 0 {
			payload = "evil"
		}
		pkts = append(pkts, batchPkt(i, payload))
	}

	scalar := mk()
	var want []bool
	for _, pkt := range pkts {
		out, err := scalar.Output(pkt)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, out != nil)
	}

	batch := mk()
	res, err := batch.OutputBatch(pkts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(pkts) {
		t.Fatalf("len(res) = %d, want %d", len(res), len(pkts))
	}
	for i := range res {
		if (res[i].Out != nil) != want[i] {
			t.Fatalf("pkt %d: batch delivered=%v, scalar=%v", i, res[i].Out != nil, want[i])
		}
		if res[i].Out != nil && res[i].Aux == nil {
			t.Fatalf("pkt %d: aux not propagated", i)
		}
	}
}

// TestOutputBatchRewriteFlowsDownstream checks that a rewrite from one
// queue is what the next chain's queue sees (the sanitizer depends on it).
func TestOutputBatchRewriteFlowsDownstream(t *testing.T) {
	nf := NewNetfilter()
	nf.Append(ChainOutput, Rule{Target: TargetQueue, QueueNum: 1})
	nf.Append(ChainPostrouting, Rule{Target: TargetQueue, QueueNum: 2})
	nf.RegisterBatchQueue(1, func(pkts []*ipv4.Packet) []BatchVerdict {
		out := make([]BatchVerdict, len(pkts))
		for i, pkt := range pkts {
			rw := pkt.Clone()
			rw.Payload = append(rw.Payload, []byte("+q1")...)
			out[i] = BatchVerdict{Verdict: VerdictAccept, Rewritten: rw}
		}
		return out
	})
	var seen []string
	nf.RegisterBatchQueue(2, func(pkts []*ipv4.Packet) []BatchVerdict {
		out := make([]BatchVerdict, len(pkts))
		for i, pkt := range pkts {
			seen = append(seen, string(pkt.Payload))
			out[i] = BatchVerdict{Verdict: VerdictAccept}
		}
		return out
	})
	res, err := nf.OutputBatch([]*ipv4.Packet{batchPkt(0, "a"), batchPkt(1, "b")})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != "a+q1" || seen[1] != "b+q1" {
		t.Fatalf("queue 2 saw %v", seen)
	}
	for i, r := range res {
		if r.Out == nil {
			t.Fatalf("pkt %d dropped", i)
		}
	}
}

// TestOutputBatchDeadQueue: packets to an unregistered queue drop with
// ErrNoQueueHandler.
func TestOutputBatchDeadQueue(t *testing.T) {
	nf := NewNetfilter()
	nf.Append(ChainOutput, Rule{Target: TargetQueue, QueueNum: 9})
	res, err := nf.OutputBatch([]*ipv4.Packet{batchPkt(0, "x")})
	if !errors.Is(err, ErrNoQueueHandler) {
		t.Fatalf("err = %v", err)
	}
	if res[0].Out != nil {
		t.Fatal("packet survived a dead queue")
	}
}

// TestOutputBatchRuleTargets: accept/drop rules partition the batch before
// any queue work, and matched subsets reach the queue as one slice.
func TestOutputBatchRuleTargets(t *testing.T) {
	nf := NewNetfilter()
	nf.Append(ChainOutput, Rule{
		Match:  func(pkt *ipv4.Packet) bool { return string(pkt.Payload) == "drop-me" },
		Target: TargetDrop,
	})
	nf.Append(ChainOutput, Rule{
		Match:  func(pkt *ipv4.Packet) bool { return string(pkt.Payload) == "fast-path" },
		Target: TargetAccept,
	})
	nf.Append(ChainOutput, Rule{Target: TargetQueue, QueueNum: 1})
	var batchSizes []int
	nf.RegisterBatchQueue(1, func(pkts []*ipv4.Packet) []BatchVerdict {
		batchSizes = append(batchSizes, len(pkts))
		out := make([]BatchVerdict, len(pkts))
		for i := range out {
			out[i] = BatchVerdict{Verdict: VerdictAccept}
		}
		return out
	})
	pkts := []*ipv4.Packet{
		batchPkt(0, "drop-me"),
		batchPkt(1, "fast-path"),
		batchPkt(2, "inspect"),
		batchPkt(3, "inspect"),
	}
	res, err := nf.OutputBatch(pkts)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Out != nil {
		t.Fatal("TargetDrop packet survived")
	}
	for i := 1; i < 4; i++ {
		if res[i].Out == nil {
			t.Fatalf("pkt %d dropped", i)
		}
	}
	if len(batchSizes) != 1 || batchSizes[0] != 2 {
		t.Fatalf("queue saw batches %v, want one batch of 2", batchSizes)
	}
}

// TestDrainBatchParallelWorkers pushes a large batch through DrainBatch
// with several workers under -race: results must align with inputs and
// every packet must get exactly one verdict.
func TestDrainBatchParallelWorkers(t *testing.T) {
	nf := NewNetfilter()
	nf.Append(ChainOutput, Rule{Target: TargetQueue, QueueNum: 1})
	var handled sync.Map
	nf.RegisterBatchQueue(1, func(pkts []*ipv4.Packet) []BatchVerdict {
		out := make([]BatchVerdict, len(pkts))
		for i, pkt := range pkts {
			if _, dup := handled.LoadOrStore(pkt, true); dup {
				panic("packet handled twice")
			}
			if string(pkt.Payload) == "evil" {
				out[i] = BatchVerdict{Verdict: VerdictDrop}
			} else {
				out[i] = BatchVerdict{Verdict: VerdictAccept, Aux: string(pkt.Payload)}
			}
		}
		return out
	})

	const n = 1000
	pkts := make([]*ipv4.Packet, n)
	for i := range pkts {
		payload := fmt.Sprintf("pkt-%d", i)
		if i%7 == 0 {
			payload = "evil"
		}
		pkts[i] = batchPkt(i, payload)
	}
	res, err := nf.DrainBatch(pkts, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if i%7 == 0 {
			if res[i].Out != nil {
				t.Fatalf("pkt %d: evil packet survived", i)
			}
			continue
		}
		if res[i].Out == nil {
			t.Fatalf("pkt %d dropped", i)
		}
		if aux, _ := res[i].Aux.(string); aux != fmt.Sprintf("pkt-%d", i) {
			t.Fatalf("pkt %d: aux %v misaligned", i, res[i].Aux)
		}
	}
	st := nf.Stats()
	if st.BatchDrains != 1 || st.BatchPackets != n {
		t.Fatalf("batch stats = %+v", st)
	}
}

// TestOutputEmptyChainAllocs pins the device path: every device packet
// crosses Output over empty chains, and that traversal allocates nothing.
func TestOutputEmptyChainAllocs(t *testing.T) {
	nf := NewNetfilter()
	pkt := batchPkt(0, "x")
	allocs := testing.AllocsPerRun(1000, func() {
		if out, err := nf.Output(pkt); out != pkt || err != nil {
			t.Fatalf("out=%v err=%v", out, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Output over empty chains: %v allocs/op, want 0", allocs)
	}
}

// TestDrainBatchKeepsFlowsTogether: with several workers, every packet of
// one flow reaches the queue handler in the same call and in burst order,
// so a connection's SYN, data and FIN are never enforced concurrently.
func TestDrainBatchKeepsFlowsTogether(t *testing.T) {
	nf := NewNetfilter()
	nf.Append(ChainOutput, Rule{Target: TargetQueue, QueueNum: 1})
	var mu sync.Mutex
	calls := 0
	seen := map[string][][2]int{} // flow -> (handler call, position in burst)
	nf.RegisterBatchQueue(1, func(pkts []*ipv4.Packet) []BatchVerdict {
		mu.Lock()
		calls++
		call := calls
		for _, pkt := range pkts {
			var pos int
			fmt.Sscanf(string(pkt.Payload), "pkt-%d", &pos)
			flow := pkt.Header.Dst.String()
			seen[flow] = append(seen[flow], [2]int{call, pos})
		}
		mu.Unlock()
		out := make([]BatchVerdict, len(pkts))
		for i := range out {
			out[i] = BatchVerdict{Verdict: VerdictAccept}
		}
		return out
	})

	// 16 flows, 8 packets each, interleaved the way a burst of concurrent
	// connections arrives.
	const flows, perFlow = 16, 8
	var pkts []*ipv4.Packet
	for j := 0; j < perFlow; j++ {
		for f := 0; f < flows; f++ {
			pkts = append(pkts, batchPkt(f, fmt.Sprintf("pkt-%d", len(pkts))))
		}
	}
	if _, err := nf.DrainBatch(pkts, 4); err != nil {
		t.Fatal(err)
	}
	if calls < 2 {
		t.Fatalf("%d handler calls: the burst was not spread over workers", calls)
	}
	for flow, got := range seen {
		if len(got) != perFlow {
			t.Fatalf("flow %s: %d packets handled, want %d", flow, len(got), perFlow)
		}
		for k := 1; k < len(got); k++ {
			if got[k][0] != got[0][0] {
				t.Fatalf("flow %s split across handler calls: %v", flow, got)
			}
			if got[k][1] <= got[k-1][1] {
				t.Fatalf("flow %s reordered: %v", flow, got)
			}
		}
	}
}
