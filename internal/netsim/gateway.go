package netsim

import (
	"sync/atomic"
	"time"

	"borderpatrol/internal/dataplane"
	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/kernel"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/sanitizer"
)

// Gateway is the enterprise-perimeter appliance: a host whose netfilter
// diverts every packet from BYOD devices into the user-space Policy
// Enforcer (NFQUEUE 1) and, for surviving packets, the Packet Sanitizer
// (NFQUEUE 2) — matching the paper's worker-host iptables layout (§VI-A).
//
// Each queue has one reader, ProcessBatch: it drains a burst through the
// kernel's batch traversal on a per-core worker pool. The paper's
// one-packet-at-a-time netfilterqueue consumer is the burst of one the
// network hands it for a single delivery. The enforcer's ProcessBatch
// amortizes resolve+decode across packets of the same flow, and the
// lock-free enforcement path lets each worker's share of the flows
// proceed on its own core in parallel.
type Gateway struct {
	nf        *kernel.Netfilter
	enforcer  *enforcer.Enforcer
	sanitizer *sanitizer.Sanitizer
	// dp is the optional per-core match-action stage installed below the
	// enforcer queue: batch drains probe it before crossing into user
	// space, and the gateway feeds it teardown (Invalidate) and restart
	// (Flush) events so its compiled state tracks the flow lifecycle.
	dp *dataplane.Dataplane
	// ct tracks TCP connection state on accepted packets: SYN establishes,
	// FIN/RST ends the connection and tears down the flow's cached verdict
	// through the enforcer.
	ct *Conntrack
	// workers sizes the ProcessBatch worker pool (≤0 = GOMAXPROCS).
	workers int
	// passthrough models config (iii) of Fig. 4: a reader that consumes
	// the queue and reinjects packets unmodified.
	passthrough bool

	restarts atomic.Uint64
}

// GatewayConfig assembles a gateway.
type GatewayConfig struct {
	// Enforcer enables the Policy Enforcer stage (nil leaves the stage out).
	Enforcer *enforcer.Enforcer
	// Sanitizer enables the Packet Sanitizer stage (nil leaves it out).
	Sanitizer *sanitizer.Sanitizer
	// Passthrough installs a read-and-reinject queue consumer even with no
	// enforcer/sanitizer, to measure the bare NFQUEUE cost.
	Passthrough bool
	// Workers sizes the per-core batch drain (≤0 = GOMAXPROCS).
	Workers int
	// Clock supplies virtual time to the connection tracker (TIME_WAIT
	// expiry, idle sweeps); nil disables time-based conntrack expiry.
	Clock *Clock
	// Dataplane installs a compiled per-core match-action stage in front
	// of the enforcer queue (nil leaves the stage out). It must have been
	// built over the same Enforcer, and should hold at least as many
	// cores as Workers so every concurrent drain can lease one.
	Dataplane *dataplane.Dataplane
}

// NewGateway wires the pipeline onto a fresh netfilter instance.
func NewGateway(cfg GatewayConfig) *Gateway {
	g := &Gateway{
		nf:          kernel.NewNetfilter(),
		enforcer:    cfg.Enforcer,
		sanitizer:   cfg.Sanitizer,
		ct:          NewConntrack(cfg.Clock),
		workers:     cfg.Workers,
		passthrough: cfg.Passthrough,
	}
	switch {
	case g.enforcer != nil:
		g.nf.RegisterBatchQueue(1, func(pkts []*ipv4.Packet) []kernel.BatchVerdict {
			results := g.enforcer.ProcessBatch(pkts, nil)
			out := make([]kernel.BatchVerdict, len(pkts))
			for i := range results {
				// Aux points into the results slice (one allocation per
				// batch, not per packet); it stays alive with the outcomes.
				out[i] = kernel.BatchVerdict{Verdict: kernel.VerdictAccept, Aux: &results[i]}
				if results[i].Verdict == policy.VerdictDrop {
					out[i].Verdict = kernel.VerdictDrop
				}
			}
			return out
		})
		if cfg.Dataplane != nil {
			g.dp = cfg.Dataplane
			g.nf.RegisterDataplane(1, g.dp)
		}
		g.nf.Append(kernel.ChainOutput, kernel.Rule{
			Target: kernel.TargetQueue, QueueNum: 1, Comment: "BYOD traffic to Policy Enforcer",
		})
	case g.passthrough:
		g.nf.RegisterBatchQueue(1, func(pkts []*ipv4.Packet) []kernel.BatchVerdict {
			out := make([]kernel.BatchVerdict, len(pkts))
			for i := range out {
				out[i] = kernel.BatchVerdict{Verdict: kernel.VerdictAccept}
			}
			return out
		})
		g.nf.Append(kernel.ChainOutput, kernel.Rule{
			Target: kernel.TargetQueue, QueueNum: 1, Comment: "passthrough reader",
		})
	}
	if g.sanitizer != nil {
		g.nf.RegisterBatchQueue(2, func(pkts []*ipv4.Packet) []kernel.BatchVerdict {
			out := make([]kernel.BatchVerdict, len(pkts))
			for i, pkt := range pkts {
				out[i] = kernel.BatchVerdict{
					Verdict:   kernel.VerdictAccept,
					Rewritten: g.sanitizer.Process(pkt.Clone()),
				}
			}
			return out
		})
		g.nf.Append(kernel.ChainPostrouting, kernel.Rule{
			Target: kernel.TargetQueue, QueueNum: 2, Comment: "outbound to Packet Sanitizer",
		})
	}
	return g
}

// Active reports whether the gateway diverts packets to user space at all
// (used for latency accounting).
func (g *Gateway) Active() bool {
	return g.enforcer != nil || g.sanitizer != nil || g.passthrough
}

// HasEnforcer reports whether the enforcement stage is present.
func (g *Gateway) HasEnforcer() bool { return g.enforcer != nil }

// HasSanitizer reports whether the sanitizing stage is present.
func (g *Gateway) HasSanitizer() bool { return g.sanitizer != nil }

// observeConn feeds one accepted packet to the conntrack; a FIN/RST tears
// the flow's cached verdict down through the enforcer. The original
// (still-tagged) packet is used, not the sanitized output — teardown keys
// on the same (5-tuple, tag bytes) the cache does. Dropped packets never
// reach it, so a denied flow's cached drop verdict deliberately survives
// its FIN: repeat offenders stay cheap to block.
func (g *Gateway) observeConn(pkt *ipv4.Packet) {
	if g.ct.Observe(pkt) {
		if g.enforcer != nil {
			g.enforcer.EndFlow(pkt)
		}
		if g.dp != nil {
			g.dp.Invalidate(pkt)
		}
	}
}

// ProcessResponse runs one server→device packet through the gateway's
// response-direction verdict state and reports whether it may pass. The
// return path carries no tag, so enforcement there is TCP sequence
// continuity (see Conntrack.ObserveResponse): a mid-stream injected
// segment whose sequence number breaks the connection's continuity is
// dropped with the enforcer's DropSeqInjection cause, surfaced through
// the bp_dataplane_seq_injection_drops_total metric.
func (g *Gateway) ProcessResponse(pkt *ipv4.Packet) bool {
	if !g.Active() {
		return true
	}
	return !g.ct.ObserveResponse(pkt)
}

// BatchOutcome is the fate of one packet in a ProcessBatch drain.
type BatchOutcome struct {
	// Out is the surviving (sanitized) packet; nil when dropped.
	Out *ipv4.Packet
	// Result is the Policy Enforcer's decision when that stage ran.
	Result *enforcer.Result
}

// ProcessBatch drains a burst of packets through the netfilter batch
// traversal on the per-core worker pool. Outcomes align with pkts. Drains
// are not serialized against each other — the enforcement path is
// lock-free by design — so callers needing a totally ordered audit trail
// should order on the returned outcomes, not on side effects.
func (g *Gateway) ProcessBatch(pkts []*ipv4.Packet) ([]BatchOutcome, error) {
	res, err := g.nf.DrainBatch(pkts, g.workers)
	out := make([]BatchOutcome, len(res))
	for i := range res {
		out[i] = BatchOutcome{Out: res[i].Out}
		if r, ok := res[i].Aux.(*enforcer.Result); ok {
			out[i].Result = r
		}
		// Connection lifecycle after the drain, in burst order: a FIN at
		// the end of a keep-alive train tears the flow down only after
		// its data packets were answered from the cache.
		if res[i].Out != nil {
			g.observeConn(pkts[i])
		}
	}
	return out, err
}

// Conntrack snapshots the gateway's connection tracker.
func (g *Gateway) Conntrack() ConntrackStats { return g.ct.Stats() }

// Restart models a gateway crash and reboot: all dataplane state — the
// enforcer's flow-verdict cache, the connection tracker, the netfilter
// counters — is discarded, exactly as a real appliance loses its RAM
// tables. The policy engine and signature database survive (they are
// control-plane state, re-read from persistent config on a real host), so
// the next packet of every live flow re-resolves through the full
// pipeline and must reach the same verdict cold — the re-resolution
// property the soak harness asserts.
func (g *Gateway) Restart() {
	if g.enforcer != nil {
		g.enforcer.PurgeFlows()
	}
	if g.dp != nil {
		g.dp.Flush()
	}
	g.ct.Reset()
	g.nf.ResetStats()
	g.restarts.Add(1)
}

// Restarts counts Restart calls over the gateway's lifetime.
func (g *Gateway) Restarts() uint64 { return g.restarts.Load() }

// GC runs one idle sweep: connections with no activity for longer than
// idle leave the conntrack (their FIN was lost — the half-open leak), and
// TTL-expired flow-cache entries are reclaimed. Returns what each sweep
// freed. Deployments call it periodically; the soak harness calls it
// between epochs and asserts the tables return to empty.
func (g *Gateway) GC(idle time.Duration) (conns, flows int) {
	conns = g.ct.Sweep(idle)
	if g.enforcer != nil {
		flows = g.enforcer.SweepFlows()
	}
	return conns, flows
}

// CloseFlow tells the enforcement stage a connection has ended, so its
// cached verdict is torn down immediately instead of lingering until TTL
// or eviction. Transport-era flows never need it — the gateway's
// conntrack calls EndFlow itself when it sees a FIN/RST — so this remains
// only for the network's legacy-payload fallback ("Connection: close"
// observed at the server). pkt is any packet of the flow still carrying
// its tag — teardown keys on the same (5-tuple, tag bytes) the cache
// does. Reports whether a cached verdict was removed.
func (g *Gateway) CloseFlow(pkt *ipv4.Packet) bool {
	if g.enforcer == nil {
		return false
	}
	return g.enforcer.EndFlow(pkt)
}

// Netfilter exposes the gateway's filter table (stats, extra rules).
func (g *Gateway) Netfilter() *kernel.Netfilter { return g.nf }

// Enforcer returns the enforcement stage, if present.
func (g *Gateway) Enforcer() *enforcer.Enforcer { return g.enforcer }

// Sanitizer returns the sanitizing stage, if present.
func (g *Gateway) Sanitizer() *sanitizer.Sanitizer { return g.sanitizer }

// Dataplane returns the match-action stage, if present.
func (g *Gateway) Dataplane() *dataplane.Dataplane { return g.dp }
