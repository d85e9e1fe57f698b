package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"os"
	"strings"
	"sync"
	"time"

	"borderpatrol/internal/android"
	"borderpatrol/internal/deploy"
	"borderpatrol/internal/dns"
	"borderpatrol/internal/httpsim"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/netsim"
	"borderpatrol/internal/policystore"
)

// This file implements the fleet-scale experiment: N gateways on one
// virtual-time network, each fronting a subnet of pooled virtual devices
// and enforcing its own policy-group shard fed from a shared hub over the
// watch path. The run pushes a mixed HTTP+DNS workload through every
// gateway, swaps the fleet policy mid-run (propagation must take exactly
// one watch round per gateway, asserted by counters), accounts for
// cross-group policy leaks, and reports aggregate throughput and
// per-packet gateway latency quantiles (BENCH_fleet.json).

// FleetRunConfig sizes the fleet experiment.
type FleetRunConfig struct {
	// Gateways is the fleet size (default 8).
	Gateways int
	// DevicesPerGateway is the pooled virtual-device population behind
	// each gateway (default 1250 — 10k devices fleet-wide).
	DevicesPerGateway int
	// BatchSize caps one gateway drain burst (default 1024 packets).
	BatchSize int
	// Metrics, when non-nil, receives every gateway's registry labelled
	// by gateway name instead of a run-private aggregate — serve it to
	// scrape the fleet live (bp-experiments -run fleet -metrics-addr).
	Metrics *metrics.Aggregate
	// AuditWriter receives the fleet-wide enforcement audit as JSON
	// lines: every gateway's bounded-async pipeline writes to it (nil
	// disables auditing).
	AuditWriter io.Writer
}

// DefaultFleetRunConfig returns the standard scale: 8 gateways, 10,000
// pooled devices.
func DefaultFleetRunConfig() FleetRunConfig {
	return FleetRunConfig{Gateways: 8, DevicesPerGateway: 1250, BatchSize: 1024}
}

// FleetGatewayReport is one gateway's slice of the run.
type FleetGatewayReport struct {
	Name    string `json:"name"`
	Devices int    `json:"devices"`
	// Delivered and Blocked count this gateway's packets.
	Delivered uint64 `json:"delivered"`
	Blocked   uint64 `json:"blocked"`
	// CrossGroupLeaks counts packets a foreign group's rule wrongly
	// dropped here; UnderEnforcement counts packets this gateway's own
	// group rule should have dropped but delivered; GlobalLeaks counts
	// deliveries past a fleet-global rule. All must be zero.
	CrossGroupLeaks  uint64 `json:"cross_group_leaks"`
	UnderEnforcement uint64 `json:"under_enforcement"`
	GlobalLeaks      uint64 `json:"global_leaks"`
	// PushWatchRounds/PushApplied/PushGenerations are the deltas the
	// mid-run fleet-wide policy push produced on this gateway's store and
	// engine. One round, one apply, one generation — push, not polling.
	PushWatchRounds uint64 `json:"push_watch_rounds"`
	PushApplied     uint64 `json:"push_applied"`
	PushGenerations uint64 `json:"push_generations"`
}

// FleetBenchResult reports the fleet experiment.
type FleetBenchResult struct {
	Gateways int `json:"gateways"`
	Devices  int `json:"devices"`
	// HTTPPackets and DNSPackets split the workload by protocol.
	HTTPPackets uint64 `json:"http_packets"`
	DNSPackets  uint64 `json:"dns_packets"`
	Delivered   uint64 `json:"delivered"`
	Blocked     uint64 `json:"blocked"`
	// Leak totals across the fleet (sum of the per-gateway reports).
	CrossGroupLeaks  uint64 `json:"cross_group_leaks"`
	UnderEnforcement uint64 `json:"under_enforcement"`
	GlobalLeaks      uint64 `json:"global_leaks"`
	// ElapsedSec is the wall time of the delivery loops only; PktsPerSec
	// is the aggregate packet rate across every gateway over it.
	ElapsedSec float64 `json:"elapsed_sec"`
	PktsPerSec float64 `json:"pkts_per_sec"`
	// P50Ns/P99Ns/P999Ns are per-packet gateway wall-latency quantiles
	// (each drain burst's elapsed time divided by its packet count).
	P50Ns  uint64 `json:"p50_ns"`
	P99Ns  uint64 `json:"p99_ns"`
	P999Ns uint64 `json:"p999_ns"`
	// PerGateway has one report per fleet member, in subnet order.
	PerGateway []FleetGatewayReport `json:"per_gateway"`
}

// Check asserts the run's invariants: zero policy leaks in any direction
// and fleet-wide policy propagation in exactly one watch round per
// gateway.
func (r *FleetBenchResult) Check() error {
	if r.CrossGroupLeaks != 0 || r.UnderEnforcement != 0 || r.GlobalLeaks != 0 {
		return fmt.Errorf("fleet: policy leaks: cross-group=%d under-enforced=%d global=%d",
			r.CrossGroupLeaks, r.UnderEnforcement, r.GlobalLeaks)
	}
	if r.Delivered == 0 || r.Blocked == 0 {
		return fmt.Errorf("fleet: degenerate run: delivered=%d blocked=%d", r.Delivered, r.Blocked)
	}
	for _, g := range r.PerGateway {
		if g.PushWatchRounds != 1 || g.PushApplied != 1 || g.PushGenerations != 1 {
			return fmt.Errorf("fleet: %s: push took rounds=%d applies=%d generations=%d, want 1/1/1",
				g.Name, g.PushWatchRounds, g.PushApplied, g.PushGenerations)
		}
	}
	return nil
}

// Format renders a paper-style summary.
func (r *FleetBenchResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: %d gateways, %d pooled devices (HTTP %d + DNS %d packets)\n",
		r.Gateways, r.Devices, r.HTTPPackets, r.DNSPackets)
	fmt.Fprintf(&b, "delivered %d, blocked %d in %.2fs — %.0f pkts/sec aggregate\n",
		r.Delivered, r.Blocked, r.ElapsedSec, r.PktsPerSec)
	fmt.Fprintf(&b, "per-packet gateway latency: p50=%dns p99=%dns p999=%dns\n",
		r.P50Ns, r.P99Ns, r.P999Ns)
	fmt.Fprintf(&b, "leaks: cross-group=%d under-enforced=%d global=%d\n",
		r.CrossGroupLeaks, r.UnderEnforcement, r.GlobalLeaks)
	for _, g := range r.PerGateway {
		fmt.Fprintf(&b, "  %-6s %5d devices  %7d delivered  %7d blocked  push: %d round %d apply %d gen\n",
			g.Name, g.Devices, g.Delivered, g.Blocked,
			g.PushWatchRounds, g.PushApplied, g.PushGenerations)
	}
	return b.String()
}

// WriteJSON writes the machine-readable result (BENCH_fleet.json).
func (r *FleetBenchResult) WriteJSON(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// fleetMember is one assembled gateway: the pipeline with its sharded
// store and template device, the device pool, and the invocation template
// bursts.
type fleetMember struct {
	name   string
	prefix netip.Prefix
	pipe   *deploy.Pipeline
	pool   *netsim.DevicePool
	// bursts maps workload kind to the template device's packet burst,
	// cloned and source-rewritten per virtual device.
	bursts map[string][]*ipv4.Packet
}

// fleet workload kinds and their expected fate.
const (
	kindSync       = "sync"        // HTTP GET, allowed everywhere
	kindResolve    = "resolve"     // DNS query, allowed everywhere
	kindBeacon     = "beacon"      // HTTP POST, denied by the global rule
	kindProbeOwn   = "probe-own"   // DNS query, denied by this gateway's group
	kindProbeOther = "probe-other" // DNS query, denied only by ANOTHER group — must deliver
)

// fleetPolicyDoc renders the fleet's grouped policy: one global rule plus
// one group per gateway, each denying its own exfiltration class.
func fleetPolicyDoc(gateways int, quarantine bool) string {
	var b strings.Builder
	b.WriteString("// fleet-wide rules\n")
	b.WriteString("{[deny][class][\"com/fleet/app/Beacon\"]}\n")
	if quarantine {
		// The mid-run push adds this unused global rule: every shard's
		// scoped render changes, so every store must apply exactly once.
		b.WriteString("{[deny][class][\"com/fleet/app/Quarantine\"]}\n")
	}
	for i := 0; i < gateways; i++ {
		fmt.Fprintf(&b, "//@group g%d\n", i)
		fmt.Fprintf(&b, "{[deny][class][\"com/fleet/app/Exfil%d\"]}\n", i)
	}
	return b.String()
}

// buildFleetMember assembles gateway i on the shared network; the caller
// closes its pipeline.
func buildFleetMember(i, gateways, devices int, network *netsim.Network, hub *policystore.Hub, agg *metrics.Aggregate, auditW io.Writer) (m *fleetMember, err error) {
	name := fmt.Sprintf("gw%d", i)
	if gateways > 200 {
		return nil, fmt.Errorf("fleet sized for at most 200 gateways, got %d", gateways)
	}
	// One /16 per gateway: room for 65k pooled devices each. The template
	// device takes the subnet's first host address; the pool numbers
	// virtual devices from the second onward.
	prefix := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(1 + i), 0, 0}), 16).Masked()
	pipe, err := deploy.New(network, deploy.Config{
		DeviceAddr: prefix.Addr().Next(),
		Store: policystore.Config{
			Source:       policystore.NewGroupScopedSource(hub.Source(), fmt.Sprintf("g%d", i)),
			Poll:         time.Hour, // propagation must come from the watch
			WatchTimeout: time.Hour,
		},
		AuditWriter: auditW,
		NoAudit:     auditW == nil,
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			pipe.Close()
		}
	}()
	m = &fleetMember{name: name, prefix: prefix, pipe: pipe, bursts: make(map[string][]*ipv4.Packet, 5)}
	network.AddGatewayRoute(prefix, pipe.Gateway)
	agg.Attach(name, pipe.Metrics)

	qResolve, err := dnsQuery(1, "files.corp.example")
	if err != nil {
		return nil, err
	}
	qOwn, err := dnsQuery(2, "c2.fleet.example")
	if err != nil {
		return nil, err
	}
	qOther, err := dnsQuery(3, "c2.fleet.example")
	if err != nil {
		return nil, err
	}
	other := (i + 1) % gateways
	httpEP := netip.AddrPortFrom(netip.MustParseAddr("198.18.80.1"), 443)
	ga := scriptedApp(fmt.Sprintf("com.fleet.%s", name), "com/fleet/app", []scriptedFn{
		{name: kindSync, desirable: true, class: "Work", method: "sync",
			op: android.NetOp{Endpoint: httpEP, Host: "files.corp", Method: "GET", Requests: 2}},
		{name: kindBeacon, class: "Beacon", method: "phoneHome",
			op: android.NetOp{Endpoint: httpEP, Host: "data.tracker", Method: "POST", PayloadBytes: 128}},
		{name: kindResolve, desirable: true, class: "Resolver", method: "lookup",
			op: android.NetOp{Endpoint: dnsServerAddr, Proto: ipv4.ProtoUDP, Datagram: qResolve, Requests: 2}},
		{name: kindProbeOwn, class: fmt.Sprintf("Exfil%d", i), method: "exfil",
			op: android.NetOp{Endpoint: dnsServerAddr, Proto: ipv4.ProtoUDP, Datagram: qOwn}},
		{name: kindProbeOther, desirable: true, class: fmt.Sprintf("Exfil%d", other), method: "exfil",
			op: android.NetOp{Endpoint: dnsServerAddr, Proto: ipv4.ProtoUDP, Datagram: qOther}},
	})
	app, err := pipe.Install(network, ga.APK, ga.Functionalities)
	if err != nil {
		return nil, err
	}
	for _, kind := range []string{kindSync, kindBeacon, kindResolve, kindProbeOwn, kindProbeOther} {
		res, err := app.Invoke(kind)
		if err != nil {
			return nil, fmt.Errorf("invoke %s: %w", kind, err)
		}
		m.bursts[kind] = res.Packets
	}
	m.pool, err = netsim.NewDevicePool(prefix, devices)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// RunFleet stands up the fleet and runs the mixed workload: every virtual
// device's HTTP sync, tracker beacon, DNS resolution, own-group probe and
// foreign-group probe, with a fleet-wide policy push between the two
// halves of the device population.
func RunFleet(cfg FleetRunConfig) (*FleetBenchResult, error) {
	def := DefaultFleetRunConfig()
	if cfg.Gateways <= 0 {
		cfg.Gateways = def.Gateways
	}
	if cfg.DevicesPerGateway <= 0 {
		cfg.DevicesPerGateway = def.DevicesPerGateway
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = def.BatchSize
	}

	network := netsim.NewNetwork(netsim.ModeTAP, netsim.DefaultLatencyModel())
	network.SetCapture(false)
	zone := dns.NewZone()
	for name, addr := range map[string]string{
		"files.corp.example": "10.80.0.10",
		"c2.fleet.example":   "203.0.113.99",
	} {
		if err := zone.AddRecord(name, netip.MustParseAddr(addr)); err != nil {
			return nil, err
		}
	}
	network.AddServer(&netsim.Server{
		Addr: dnsServerAddr.Addr(), Name: "corp-dns",
		UDPHandler: dns.ZoneHandler(zone), Internal: true,
	})
	network.AddServer(&netsim.Server{
		Addr: netip.MustParseAddr("198.18.80.1"), Name: "files.corp",
		Handler: httpsim.StaticHandler(httpsim.StaticPage()),
	})

	hub := policystore.NewHub(fleetPolicyDoc(cfg.Gateways, false))
	agg := cfg.Metrics
	if agg == nil {
		agg = metrics.NewAggregate("gateway")
	}
	// Every gateway's audit drainer writes to the one fleet-wide writer.
	var auditW io.Writer
	if cfg.AuditWriter != nil {
		auditW = &lockedWriter{w: cfg.AuditWriter}
	}
	members := make([]*fleetMember, cfg.Gateways)
	for i := range members {
		m, err := buildFleetMember(i, cfg.Gateways, cfg.DevicesPerGateway, network, hub, agg, auditW)
		if err != nil {
			return nil, fmt.Errorf("fleet: gateway %d: %w", i, err)
		}
		defer m.pipe.Close()
		members[i] = m
	}
	for _, m := range members {
		m.pipe.Policy.Start()
	}

	res := &FleetBenchResult{
		Gateways:   cfg.Gateways,
		Devices:    cfg.Gateways * cfg.DevicesPerGateway,
		PerGateway: make([]FleetGatewayReport, cfg.Gateways),
	}
	lat := metrics.NewHistogram()
	var elapsed time.Duration

	// deliver pushes the device range [lo, hi) of every gateway through
	// the shared network, one workload kind at a time, scoring outcomes
	// against the kind's expected fate.
	deliver := func(lo, hi int) error {
		for gi, m := range members {
			rep := &res.PerGateway[gi]
			for _, kind := range []string{kindSync, kindBeacon, kindResolve, kindProbeOwn, kindProbeOther} {
				tmpl := m.bursts[kind]
				isDNS := kind == kindResolve || kind == kindProbeOwn || kind == kindProbeOther
				batch := make([]*ipv4.Packet, 0, cfg.BatchSize)
				flush := func() {
					if len(batch) == 0 {
						return
					}
					start := time.Now()
					ds := network.DeliverBatch(batch)
					d := time.Since(start)
					elapsed += d
					lat.Record(d.Nanoseconds() / int64(len(batch)))
					for _, del := range ds {
						if del.Delivered {
							rep.Delivered++
						} else {
							rep.Blocked++
						}
						switch kind {
						case kindSync, kindResolve:
							if !del.Delivered {
								rep.CrossGroupLeaks++ // allowed traffic dropped: a foreign deny leaked in
							}
						case kindProbeOther:
							if !del.Delivered {
								rep.CrossGroupLeaks++ // another group's rule enforced here
							}
						case kindBeacon:
							if del.Delivered {
								rep.GlobalLeaks++
							}
						case kindProbeOwn:
							if del.Delivered {
								rep.UnderEnforcement++
							}
						}
					}
					batch = batch[:0]
				}
				for dev := lo; dev < hi && dev < m.pool.Len(); dev++ {
					pkts := m.pool.Rewrite(dev, tmpl)
					if isDNS {
						res.DNSPackets += uint64(len(pkts))
					} else {
						res.HTTPPackets += uint64(len(pkts))
					}
					batch = append(batch, pkts...)
					if len(batch) >= cfg.BatchSize {
						flush()
					}
				}
				flush()
			}
		}
		return nil
	}

	half := cfg.DevicesPerGateway / 2
	if err := deliver(0, half); err != nil {
		return nil, err
	}

	// Mid-run fleet-wide policy push: one hub revision must reach every
	// gateway in exactly one watch round — counters and generations, not
	// sleeps.
	type before struct{ rounds, applied, gen uint64 }
	b4 := make([]before, len(members))
	for i, m := range members {
		s := m.pipe.Policy.Stats()
		b4[i] = before{s.WatchRounds, s.Applied, m.pipe.Engine.Generation()}
	}
	hub.Set(fleetPolicyDoc(cfg.Gateways, true))
	deadline := time.Now().Add(30 * time.Second)
	for i, m := range members {
		for m.pipe.Policy.Stats().WatchRounds == b4[i].rounds {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("fleet: %s: policy push did not complete a watch round", m.name)
			}
			time.Sleep(200 * time.Microsecond)
		}
		s := m.pipe.Policy.Stats()
		rep := &res.PerGateway[i]
		rep.Name = m.name
		rep.Devices = cfg.DevicesPerGateway
		rep.PushWatchRounds = s.WatchRounds - b4[i].rounds
		rep.PushApplied = s.Applied - b4[i].applied
		rep.PushGenerations = m.pipe.Engine.Generation() - b4[i].gen
	}

	if err := deliver(half, cfg.DevicesPerGateway); err != nil {
		return nil, err
	}

	for i := range res.PerGateway {
		rep := &res.PerGateway[i]
		res.Delivered += rep.Delivered
		res.Blocked += rep.Blocked
		res.CrossGroupLeaks += rep.CrossGroupLeaks
		res.UnderEnforcement += rep.UnderEnforcement
		res.GlobalLeaks += rep.GlobalLeaks
	}
	res.ElapsedSec = elapsed.Seconds()
	if res.ElapsedSec > 0 {
		res.PktsPerSec = float64(res.Delivered+res.Blocked) / res.ElapsedSec
	}
	snap := lat.Snapshot()
	res.P50Ns = snap.Quantile(0.5)
	res.P99Ns = snap.Quantile(0.99)
	res.P999Ns = snap.Quantile(0.999)
	// Flush-on-close so every decision reaches cfg.AuditWriter before the
	// result is reported (idempotent with the safety-net defers above).
	for _, m := range members {
		if err := m.pipe.Close(); err != nil {
			return nil, fmt.Errorf("fleet: %s: audit: %w", m.name, err)
		}
	}
	return res, nil
}

// lockedWriter serializes writes from several audit drainers onto one
// writer, so each drain burst lands whole.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}
