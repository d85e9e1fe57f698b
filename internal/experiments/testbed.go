// Package experiments contains one reproduction harness per table and
// figure in the paper's evaluation (§VI) plus the discussion's empirical
// claims (§VII). Each experiment assembles the full system — provisioned
// device, Context Manager, gateway with Policy Enforcer and Packet
// Sanitizer, simulated enterprise network — runs the paper's workload, and
// returns a typed result with a paper-style textual rendering.
package experiments

import (
	"fmt"
	"io"
	"time"

	"borderpatrol/internal/android"
	"borderpatrol/internal/apkgen"
	"borderpatrol/internal/deploy"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/netsim"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/policystore"
	"borderpatrol/internal/transport"
)

// Testbed is a fully assembled BorderPatrol deployment: the shared
// pipeline (package deploy) on its own network, with a corpus installed.
type Testbed struct {
	*deploy.Pipeline
	Network *netsim.Network
	// Apps are the installed corpus apps in install order.
	Apps []*android.App
	// Corpus preserves the generator metadata per installed app.
	Corpus []*apkgen.App
}

// TestbedConfig assembles a deployment.
type TestbedConfig struct {
	// Rules is the initial policy (may be nil).
	Rules []policy.Rule
	// DefaultVerdict is the engine default (VerdictAllow for observation
	// phases, VerdictDrop for whitelist postures).
	DefaultVerdict policy.Verdict
	// EnforcementOn wires the Policy Enforcer into the gateway; when false
	// the gateway only sanitizes (observation / baseline runs).
	EnforcementOn bool
	// DisableFlowCache turns off per-flow verdict caching (on by default
	// when enforcement is on; baselines that measure the uncached pipeline
	// set this).
	DisableFlowCache bool
	// GatewayWorkers sizes the batched per-core queue drain (0 = GOMAXPROCS).
	GatewayWorkers int
	// AuditWriter receives the enforcement audit as JSON lines (nil keeps
	// only counters and the in-memory tail).
	AuditWriter io.Writer
	// PolicySource feeds the engine from an external policy backend (file,
	// HTTP, static) instead of Rules. The initial document loads
	// synchronously — a broken initial policy fails NewTestbed — and later
	// changes hot-swap atomically with last-good fallback.
	PolicySource policystore.Source
	// PolicyPoll starts background hot reload at this interval when > 0
	// (manual Testbed.Policy.Reload() otherwise). Requires PolicySource.
	PolicyPoll time.Duration
	// LegacyPayloads runs the device on the pre-transport wire format:
	// payloads ride directly in the IPv4 payload with no TCP/UDP header
	// and no SYN/FIN lifecycle. Used by the transport-equivalence
	// regression, which proves both wire formats produce identical
	// workload verdicts.
	LegacyPayloads bool
	// Faults arms the network with a deterministic fault plan at
	// construction (nil leaves the wire perfect, as before).
	Faults *netsim.FaultPlan
	// FlowTTL bounds cached verdicts in virtual time, in the flow table
	// and the dataplane alike; zero keeps the pre-soak behaviour (no TTL,
	// eviction pressure only).
	FlowTTL time.Duration
	// PolicyMaxStale enables the policy store's staleness deadline, and
	// PolicyFailMode selects the degraded posture past it. Requires
	// PolicySource.
	PolicyMaxStale time.Duration
	PolicyFailMode policystore.FailMode
	// PolicyVirtualTime drives the staleness clock from the network's
	// virtual clock instead of wall time, so harnesses can age the policy
	// by hours in microseconds.
	PolicyVirtualTime bool
	// DisableCapture turns the network's packet-capture logs off (they
	// clone every packet — unbounded memory over a soak run).
	DisableCapture bool
	// Dataplane compiles hot rules and established-flow verdicts into the
	// per-core match-action stage probed below the enforcer queue. Requires
	// EnforcementOn and the flow cache (ignored when either is off).
	Dataplane bool
}

// NewTestbed provisions a device, loads the Context Manager, analyzes and
// installs every corpus app, and stands up the gateway and network with one
// server per endpoint the corpus references.
func NewTestbed(corpus []*apkgen.App, cfg TestbedConfig) (*Testbed, error) {
	// The network comes up before the policy store so the store's
	// staleness clock can read virtual time.
	network := netsim.NewNetwork(netsim.ModeTAP, netsim.DefaultLatencyModel())
	if cfg.DisableCapture {
		network.SetCapture(false)
	}
	if cfg.Faults != nil {
		network.InstallFaults(*cfg.Faults)
	}
	store := policystore.Config{
		Source:   cfg.PolicySource,
		Poll:     cfg.PolicyPoll,
		MaxStale: cfg.PolicyMaxStale,
		FailMode: cfg.PolicyFailMode,
	}
	if cfg.PolicyVirtualTime {
		store.Now = network.Clock.Now
	}
	ttl := cfg.FlowTTL
	if ttl == 0 {
		ttl = -1 // the testbed's zero means no TTL
	}
	return assembleTestbed(corpus, network, deploy.Config{
		RawPayloads:    cfg.LegacyPayloads,
		Rules:          cfg.Rules,
		DefaultVerdict: cfg.DefaultVerdict,
		Store:          store,
		SanitizeOnly:   !cfg.EnforcementOn,
		NoFlowCache:    cfg.DisableFlowCache,
		FlowTTL:        ttl,
		Dataplane:      cfg.Dataplane,
		Workers:        cfg.GatewayWorkers,
		AuditWriter:    cfg.AuditWriter,
	})
}

// assembleTestbed builds the pipeline as the network's gateway, installs
// the corpus with a server at every endpoint it reaches, and starts the
// policy store.
func assembleTestbed(corpus []*apkgen.App, network *netsim.Network, cfg deploy.Config) (*Testbed, error) {
	pipe, err := deploy.New(network, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	tb := &Testbed{Pipeline: pipe, Network: network, Corpus: corpus}
	network.Gateway = pipe.Gateway
	network.RegisterMetrics(pipe.Metrics)
	for _, ga := range corpus {
		app, err := pipe.Install(network, ga.APK, ga.Functionalities)
		if err != nil {
			tb.Close()
			return nil, fmt.Errorf("experiments: install %s: %w", ga.APK.PackageName, err)
		}
		tb.Apps = append(tb.Apps, app)
	}
	tb.Policy.Start()
	return tb, nil
}

// DeliverAll pushes a batch of packets through the network's batched
// gateway drain, returning how many were delivered and how many dropped.
func (tb *Testbed) DeliverAll(pkts []*ipv4.Packet) (delivered, dropped int) {
	for _, d := range tb.Network.DeliverBatch(pkts) {
		if d.Delivered {
			delivered++
		} else {
			dropped++
		}
	}
	return delivered, dropped
}

// isDataPacket reports whether a packet carries application data — an
// HTTP request in a TCP data segment, a UDP datagram, or a legacy plain
// payload (no transport header at all). TCP control segments (SYN, FIN,
// RST) return false. Experiments that score workload outcomes count data
// packets so their numbers are identical whether the testbed speaks the
// transport wire format or the legacy one — the verdict-equivalence
// property the transport refactor preserves by construction (every packet
// of a flow carries the same tag, so control segments share their flow's
// verdict).
func isDataPacket(pkt *ipv4.Packet) bool {
	info, ok := transport.PeekPacket(pkt)
	if !ok {
		return true // legacy payload (or fragment): all data
	}
	if info.Proto == ipv4.ProtoTCP {
		return len(pkt.Payload) > info.DataOff
	}
	return true
}

// dataPackets filters a burst down to its data packets.
func dataPackets(pkts []*ipv4.Packet) []*ipv4.Packet {
	out := make([]*ipv4.Packet, 0, len(pkts))
	for _, pkt := range pkts {
		if isDataPacket(pkt) {
			out = append(out, pkt)
		}
	}
	return out
}
