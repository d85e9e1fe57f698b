package kernel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"borderpatrol/internal/ipv4"
)

// Verdict is an NFQUEUE verdict for a packet.
type Verdict int

// Verdicts.
const (
	// VerdictAccept lets the packet continue chain traversal.
	VerdictAccept Verdict = iota + 1
	// VerdictDrop discards the packet.
	VerdictDrop
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictAccept:
		return "NF_ACCEPT"
	case VerdictDrop:
		return "NF_DROP"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Chain identifies a netfilter chain the simulator models.
type Chain int

// Chains traversed by locally-generated traffic.
const (
	// ChainOutput sees every locally generated packet first.
	ChainOutput Chain = iota + 1
	// ChainPostrouting sees packets just before they hit the wire.
	ChainPostrouting
)

// String names the chain in iptables convention.
func (c Chain) String() string {
	switch c {
	case ChainOutput:
		return "OUTPUT"
	case ChainPostrouting:
		return "POSTROUTING"
	default:
		return fmt.Sprintf("chain(%d)", int(c))
	}
}

// BatchVerdict is one packet's outcome from a QueueBatchHandler: the
// verdict a user-space NFQUEUE consumer returns, optionally with a rewrite
// (the Policy Enforcer accepts/drops; the Packet Sanitizer mangles).
type BatchVerdict struct {
	// Verdict accepts or drops the packet.
	Verdict Verdict
	// Rewritten replaces the packet for the rest of the traversal when
	// non-nil.
	Rewritten *ipv4.Packet
	// Aux carries handler-specific per-packet data back to the driver
	// (the gateway attaches the enforcement result here). The last
	// non-nil Aux a packet picks up across queues wins.
	Aux any
}

// QueueBatchHandler is a user-space NFQUEUE consumer. It takes a whole
// batch of packets diverted to one NFQUEUE in a single user-space
// transition and returns one BatchVerdict per packet (verdicts[i] answers
// pkts[i]). Batch handlers let the consumer amortize per-flow work —
// resolve, decode, policy — across the packets of a burst, which is where
// the real netfilter_queue's per-packet recv/verdict round trip hurts
// most.
type QueueBatchHandler func(pkts []*ipv4.Packet) []BatchVerdict

// DataplaneCore is one core's leased view of a match-action dataplane: a
// single-owner verdict table probed before the queue handler. Probe
// answers a packet from compiled state (ok false = miss; the caller runs
// the handler and Promotes the outcome). The any value is handler-level
// auxiliary data for the hit (the dataplane returns the same type the
// queue handler would attach, so downstream consumers cannot tell the
// fast and slow paths apart). Promote is called with the handler's
// verdict and Aux for each miss, letting the dataplane learn the flow.
// A Core is held for one batch traversal and Released after it.
type DataplaneCore interface {
	Probe(pkt *ipv4.Packet) (Verdict, any, bool)
	Promote(pkt *ipv4.Packet, v Verdict, aux any)
	Release()
}

// Dataplane hands out per-core verdict tables to batch traversals.
// Acquire may return nil (every core busy); the traversal then runs
// handler-only, which is always correct — the dataplane is a pure
// accelerator.
type Dataplane interface {
	Acquire() DataplaneCore
}

// RuleTarget is what an iptables rule does on match.
type RuleTarget int

// Rule targets.
const (
	// TargetAccept accepts immediately.
	TargetAccept RuleTarget = iota + 1
	// TargetDrop drops immediately.
	TargetDrop
	// TargetQueue diverts to an NFQUEUE by number.
	TargetQueue
)

// Rule is a simplified iptables rule: an optional match plus a target.
type Rule struct {
	// Match returns whether the rule applies; nil matches everything.
	Match func(pkt *ipv4.Packet) bool
	// Target is the action on match.
	Target RuleTarget
	// QueueNum selects the NFQUEUE for TargetQueue.
	QueueNum int
	// Comment is operator documentation, as in iptables -m comment.
	Comment string
}

// Netfilter models the kernel's packet-filter hooks. Verdict counters are
// atomic so concurrent chain traversals (the gateway's per-core batch
// drain) never serialize on a stats lock.
type Netfilter struct {
	mu           sync.RWMutex
	chains       map[Chain][]Rule
	batchQueues  map[int]QueueBatchHandler
	dataplanes   map[int]Dataplane
	accepted     atomic.Uint64
	dropped      atomic.Uint64
	queuedOK     atomic.Uint64
	batchDrains  atomic.Uint64
	batchPackets atomic.Uint64
}

// ErrNoQueueHandler reports a rule diverting to an unregistered queue; the
// real kernel drops packets queued to a dead NFQUEUE, and so do we.
var ErrNoQueueHandler = errors.New("kernel: NFQUEUE has no user-space handler")

// NewNetfilter builds an empty rule table (policy ACCEPT on all chains).
func NewNetfilter() *Netfilter {
	return &Netfilter{
		chains:      make(map[Chain][]Rule),
		batchQueues: make(map[int]QueueBatchHandler),
		dataplanes:  make(map[int]Dataplane),
	}
}

// Append adds a rule at the end of a chain (iptables -A).
func (nf *Netfilter) Append(chain Chain, rule Rule) {
	nf.mu.Lock()
	defer nf.mu.Unlock()
	nf.chains[chain] = append(nf.chains[chain], rule)
}

// Flush removes all rules from a chain (iptables -F).
func (nf *Netfilter) Flush(chain Chain) {
	nf.mu.Lock()
	defer nf.mu.Unlock()
	delete(nf.chains, chain)
}

// RegisterBatchQueue binds a user-space handler to an NFQUEUE number.
// Every traversal — Output (a batch of one), OutputBatch and DrainBatch —
// hands the queue's packets to it.
func (nf *Netfilter) RegisterBatchQueue(num int, h QueueBatchHandler) {
	nf.mu.Lock()
	defer nf.mu.Unlock()
	nf.batchQueues[num] = h
}

// RegisterDataplane installs a match-action stage in front of an
// NFQUEUE's batch handler: batch traversals probe it per packet before
// crossing into user space, fall through to the handler on miss, and
// promote the handler's outcomes back into it. The hardware-offload
// shape: compiled fast path below, full enforcement above.
func (nf *Netfilter) RegisterDataplane(num int, dp Dataplane) {
	nf.mu.Lock()
	defer nf.mu.Unlock()
	nf.dataplanes[num] = dp
}

// UnregisterQueue detaches a queue's handlers (user-space program exited).
func (nf *Netfilter) UnregisterQueue(num int) {
	nf.mu.Lock()
	defer nf.mu.Unlock()
	delete(nf.batchQueues, num)
	delete(nf.dataplanes, num)
}

// Output runs a packet through OUTPUT then POSTROUTING, as the kernel does
// for locally generated traffic. It returns the (possibly rewritten)
// packet, or nil if any rule or queue handler dropped it. It is a batch
// traversal of one, on a stack array, so the device's per-packet path
// allocates nothing when no queue rule matches.
func (nf *Netfilter) Output(pkt *ipv4.Packet) (*ipv4.Packet, error) {
	items := [1]batchItem{{pkt: pkt}}
	if err := nf.output(items[:]); err != nil {
		return nil, err
	}
	return items[0].pkt, nil
}

// BatchResult is the fate of one packet pushed through a batch traversal.
type BatchResult struct {
	// Out is the surviving (possibly rewritten) packet; nil when dropped.
	Out *ipv4.Packet
	// Aux is the last non-nil per-packet datum a queue handler attached.
	Aux any
}

// batchItem tracks one packet's traversal state within a chain.
type batchItem struct {
	pkt *ipv4.Packet
	// done marks packets decided for the current chain (accepted early or
	// dropped); dropped packets have pkt == nil.
	done bool
	aux  any
}

// OutputBatch runs a batch through OUTPUT then POSTROUTING in one
// traversal per chain: for each rule, the matching live packets are
// partitioned out and — for NFQUEUE targets — handed to the queue's batch
// handler as a single slice, so the user-space consumer crosses the
// kernel boundary once per burst instead of once per packet. Results
// align with pkts (Out nil = dropped). A queue with no handler drops its
// packets and reports ErrNoQueueHandler (first error wins), like the real
// kernel's dead-NFQUEUE behaviour.
func (nf *Netfilter) OutputBatch(pkts []*ipv4.Packet) ([]BatchResult, error) {
	items := make([]batchItem, len(pkts))
	for i, p := range pkts {
		items[i] = batchItem{pkt: p}
	}
	err := nf.output(items)
	out := make([]BatchResult, len(items))
	for i := range items {
		out[i] = BatchResult{Out: items[i].pkt, Aux: items[i].aux}
	}
	return out, err
}

// output runs the items through OUTPUT then POSTROUTING.
func (nf *Netfilter) output(items []batchItem) error {
	err := nf.traverseBatch(ChainOutput, items)
	// Reset chain-scoped accept marks; drops keep pkt == nil.
	for i := range items {
		items[i].done = items[i].pkt == nil
	}
	if err2 := nf.traverseBatch(ChainPostrouting, items); err == nil {
		err = err2
	}
	return err
}

// traverseBatch walks one chain over every not-yet-decided item.
// Verdict counters accumulate in locals and flush once per traversal —
// at batch sizes the per-packet atomic adds were a measurable slice of
// the fast-path budget.
func (nf *Netfilter) traverseBatch(chain Chain, items []batchItem) error {
	nf.mu.RLock()
	rules := nf.chains[chain]
	nf.mu.RUnlock()

	var firstErr error
	var accepted, dropped, queued uint64
	// matched carries the item indexes a queue rule diverts this round,
	// sized once at full batch width so append never regrows it.
	var matched []int
	for ri := range rules {
		r := &rules[ri]
		switch r.Target {
		case TargetAccept:
			for i := range items {
				it := &items[i]
				if it.done || (r.Match != nil && !r.Match(it.pkt)) {
					continue
				}
				it.done = true
				accepted++
			}
		case TargetDrop:
			for i := range items {
				it := &items[i]
				if it.done || (r.Match != nil && !r.Match(it.pkt)) {
					continue
				}
				it.pkt = nil
				it.done = true
				dropped++
			}
		case TargetQueue:
			if matched == nil {
				matched = make([]int, 0, len(items))
			}
			matched = matched[:0]
			for i := range items {
				it := &items[i]
				if it.done || (r.Match != nil && !r.Match(it.pkt)) {
					continue
				}
				matched = append(matched, i)
			}
			if len(matched) == 0 {
				continue
			}
			nf.mu.RLock()
			bh := nf.batchQueues[r.QueueNum]
			dp := nf.dataplanes[r.QueueNum]
			nf.mu.RUnlock()
			if bh == nil {
				for _, i := range matched {
					items[i].pkt = nil
					items[i].done = true
					dropped++
				}
				if firstErr == nil {
					firstErr = fmt.Errorf("%w: queue %d", ErrNoQueueHandler, r.QueueNum)
				}
				continue
			}
			// Match-action stage first: lease a core and answer what it
			// can before paying the user-space transition. Hits receive
			// the same Aux a handler would attach, so the consumer
			// cannot tell the paths apart; misses fall through to the
			// batch handler and their outcomes are promoted.
			var core DataplaneCore
			if dp != nil {
				core = dp.Acquire()
			}
			if core != nil {
				kept := matched[:0]
				for _, i := range matched {
					it := &items[i]
					v, aux, hit := core.Probe(it.pkt)
					if !hit {
						kept = append(kept, i)
						continue
					}
					if aux != nil {
						it.aux = aux
					}
					if v == VerdictDrop {
						it.pkt = nil
						it.done = true
						dropped++
						continue
					}
					queued++
				}
				matched = kept
			}
			if len(matched) > 0 {
				batch := make([]*ipv4.Packet, len(matched))
				for bi, i := range matched {
					batch[bi] = items[i].pkt
				}
				verdicts := bh(batch)
				for bi, i := range matched {
					it := &items[i]
					// Aux rides along even on drops: the gateway needs the
					// enforcement result of a denied packet for its audit
					// trail.
					if bi < len(verdicts) && verdicts[bi].Aux != nil {
						it.aux = verdicts[bi].Aux
					}
					if bi >= len(verdicts) {
						it.pkt = nil
						it.done = true
						dropped++
						continue
					}
					if core != nil {
						core.Promote(batch[bi], verdicts[bi].Verdict, verdicts[bi].Aux)
					}
					if verdicts[bi].Verdict == VerdictDrop {
						it.pkt = nil
						it.done = true
						dropped++
						continue
					}
					queued++
					if verdicts[bi].Rewritten != nil {
						it.pkt = verdicts[bi].Rewritten
					}
				}
			}
			if core != nil {
				core.Release()
			}
		}
	}
	// Chain policy is ACCEPT for the survivors.
	for i := range items {
		if !items[i].done {
			accepted++
		}
	}
	if accepted > 0 {
		nf.accepted.Add(accepted)
	}
	if dropped > 0 {
		nf.dropped.Add(dropped)
	}
	if queued > 0 {
		nf.queuedOK.Add(queued)
	}
	return firstErr
}

// DrainBatch is the per-core queue drain: it partitions the batch by flow
// and runs OutputBatch on each worker's share from its own goroutine
// (workers ≤ 0 selects GOMAXPROCS). Queue handlers must be safe for
// concurrent use — the Policy Enforcer's Process/ProcessBatch are
// lock-free precisely so this scales with cores. Packets of one flow keep
// their order on one worker; results align with pkts.
func (nf *Netfilter) DrainBatch(pkts []*ipv4.Packet, workers int) ([]BatchResult, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pkts) {
		workers = len(pkts)
	}
	nf.batchDrains.Add(1)
	nf.batchPackets.Add(uint64(len(pkts)))
	if workers <= 1 {
		return nf.OutputBatch(pkts)
	}

	// Receive-side scaling: a connection's SYN, data and FIN must not be
	// enforced concurrently or out of order (a FIN overtaking its SYN
	// would miss the verdict the SYN is about to cache, and conntrack
	// would see the close first), so each packet goes to the worker its
	// host pair and protocol hash to. Fragments carry no ports, hence no
	// ports in the hash.
	shares := make([][]int, workers)
	for i, pkt := range pkts {
		w := flowWorker(pkt, workers)
		shares[w] = append(shares[w], i)
	}
	out := make([]BatchResult, len(pkts))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w, idx := range shares {
		if len(idx) == 0 {
			continue
		}
		wg.Add(1)
		go func(w int, idx []int) {
			defer wg.Done()
			share := make([]*ipv4.Packet, len(idx))
			for j, i := range idx {
				share[j] = pkts[i]
			}
			res, err := nf.OutputBatch(share)
			for j := range res {
				out[idx[j]] = res[j]
			}
			errs[w] = err
		}(w, idx)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// flowWorker maps a packet's host pair and protocol onto one of workers.
func flowWorker(pkt *ipv4.Packet, workers int) int {
	src, dst := pkt.Header.Src.As16(), pkt.Header.Dst.As16()
	h := binary.BigEndian.Uint64(src[8:])*31 + binary.BigEndian.Uint64(dst[8:])
	h = (h ^ uint64(pkt.Header.Protocol)) * 0x9e3779b97f4a7c15
	return int((h >> 32) % uint64(workers))
}

// FilterStats reports packet-verdict counters.
type FilterStats struct {
	Accepted uint64
	Dropped  uint64
	Queued   uint64
	// BatchDrains counts DrainBatch invocations; BatchPackets the packets
	// they carried.
	BatchDrains  uint64
	BatchPackets uint64
}

// ResetStats zeroes the verdict counters — the kernel analogue of a
// reboot. The gateway calls it from Restart so post-restart stats describe
// only the new incarnation; rules and queue registrations survive (they
// are re-established from persistent config on a real host).
func (nf *Netfilter) ResetStats() {
	nf.accepted.Store(0)
	nf.dropped.Store(0)
	nf.queuedOK.Store(0)
	nf.batchDrains.Store(0)
	nf.batchPackets.Store(0)
}

// Stats returns a snapshot of verdict counters.
func (nf *Netfilter) Stats() FilterStats {
	return FilterStats{
		Accepted:     nf.accepted.Load(),
		Dropped:      nf.dropped.Load(),
		Queued:       nf.queuedOK.Load(),
		BatchDrains:  nf.batchDrains.Load(),
		BatchPackets: nf.batchPackets.Load(),
	}
}
