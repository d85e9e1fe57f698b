// Package deploy is the one place a BorderPatrol gateway pipeline is
// wired and its defaults applied: the provisioned device and its Context
// Manager, the signature database, the policy engine and store, the
// device-context source, the audit log, the enforcer and its flow caches,
// and the gateway, all on one metrics registry. Callers keep the network,
// its topology and its network-wide metrics.
package deploy

import (
	"errors"
	"fmt"
	"io"
	"net/netip"
	"runtime"
	"time"

	"borderpatrol/internal/analyzer"
	"borderpatrol/internal/android"
	"borderpatrol/internal/audit"
	"borderpatrol/internal/contextmgr"
	"borderpatrol/internal/dataplane"
	"borderpatrol/internal/devctx"
	"borderpatrol/internal/dex"
	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/flowtable"
	"borderpatrol/internal/httpsim"
	"borderpatrol/internal/kernel"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/netsim"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/policystore"
	"borderpatrol/internal/sanitizer"
)

// DefaultFlowTTL bounds a cached verdict's age in virtual time, in both
// caches: keep-alive flows stay warm, and a time-of-day risk rule
// re-scores a flow within a minute of its window closing.
const DefaultFlowTTL = time.Minute

// Config selects one pipeline. The zero value is the paper's deployment:
// a hardened device at 10.66.0.2, an allow-by-default engine with no
// rules, and an enforcing gateway with the flow table on.
type Config struct {
	// DeviceAddr is the provisioned device's address (zero: 10.66.0.2).
	DeviceAddr netip.Addr
	// Unhardened leaves out the set-once IP_OPTIONS hardening: the
	// prototype kernel on which a stolen tag can be replayed (§VII).
	Unhardened bool
	// RawPayloads runs the device on the legacy wire format (no TCP/UDP
	// header, no SYN/FIN lifecycle).
	RawPayloads bool

	// Rules is the initial policy; DefaultVerdict decides packets no rule
	// covers (zero: allow).
	Rules          []policy.Rule
	DefaultVerdict policy.Verdict
	// Store feeds the engine from a policy backend when its Source is
	// set (mutually exclusive with Rules); New fills in the Engine. The
	// initial document loads synchronously; the background poller waits
	// for Policy.Start.
	Store policystore.Config
	// InitialContext provisions the device's context at construction
	// (nil: unknown until the device reports).
	InitialContext *policy.DeviceContext

	// SanitizeOnly leaves the enforcer, its audit log and its caches out:
	// the gateway only strips tags (observation and baseline runs).
	SanitizeOnly bool
	// AllowUntagged admits packets without a BorderPatrol tag.
	AllowUntagged bool
	// NoFlowCache turns verdict caching off, dataplane included.
	NoFlowCache bool
	// FlowCapacity bounds the flow table (zero: the flowtable default).
	FlowCapacity int
	// FlowTTL expires cached verdicts, in the flow table and the dataplane
	// alike (zero: DefaultFlowTTL; negative: never, eviction only).
	FlowTTL time.Duration
	// Dataplane puts the per-core match-action stage in front of the
	// enforcer queue; DataplaneEntries sizes each core's table (zero: the
	// dataplane default).
	Dataplane        bool
	DataplaneEntries int
	// Workers sizes the gateway's batch drain and the dataplane's cores
	// (zero: GOMAXPROCS).
	Workers int

	// AuditWriter receives the audit trail as JSON lines (nil: the
	// in-memory tail only); AuditQueueCap bounds its pending entries
	// (zero: the audit default). NoAudit leaves the audit log out.
	AuditWriter   io.Writer
	AuditQueueCap int
	NoAudit       bool
}

// Pipeline is one assembled gateway and the device behind it.
type Pipeline struct {
	Device  *android.Device
	Manager *contextmgr.Manager
	DB      *analyzer.Database
	Engine  *policy.Engine
	// Policy is the hot-reload store (nil without Config.Store.Source).
	Policy *policystore.Store
	// Context is the device-context source; device pools can bind to it.
	Context *devctx.Source
	// Audit and Enforcer are nil for a sanitize-only gateway, Audit also
	// with NoAudit.
	Audit    *audit.Log
	Enforcer *enforcer.Enforcer
	Gateway  *netsim.Gateway
	Metrics  *metrics.Registry
}

// New assembles a pipeline on network. The gateway is not attached to
// the network: the caller installs it as the network's Gateway or behind
// a subnet route, then starts the policy store with Policy.Start. Every
// fallible step runs before the audit drainer starts, so an error return
// leaks no goroutine.
func New(network *netsim.Network, cfg Config) (*Pipeline, error) {
	if len(cfg.Rules) > 0 && cfg.Store.Source != nil {
		return nil, errors.New("rules and a policy source are mutually exclusive")
	}
	if cfg.DefaultVerdict == 0 {
		cfg.DefaultVerdict = policy.VerdictAllow
	}
	engine, err := policy.NewEngine(cfg.Rules, cfg.DefaultVerdict)
	if err != nil {
		return nil, err
	}
	p := &Pipeline{Engine: engine, DB: analyzer.NewDatabase()}
	if cfg.Store.Source != nil {
		cfg.Store.Engine = engine
		if p.Policy, err = policystore.New(cfg.Store); err != nil {
			return nil, err
		}
		// Fatal: there is no last-good rule set to fall back to yet, and
		// enforcing an empty policy would fail open.
		if err := p.Policy.Load(); err != nil {
			return nil, fmt.Errorf("initial policy: %w", err)
		}
	}

	addr := cfg.DeviceAddr
	if !addr.IsValid() {
		addr = netip.MustParseAddr("10.66.0.2")
	}
	p.Device = android.NewDevice(android.Config{
		Addr: addr,
		Kernel: kernel.Config{
			AllowUnprivilegedIPOptions: true,
			SetOptionsOncePerSocket:    !cfg.Unhardened,
			RawPayloads:                cfg.RawPayloads,
		},
		XposedInstalled: true,
	})
	p.Manager = contextmgr.New(p.Device)
	if err := p.Device.LoadModule(p.Manager); err != nil {
		return nil, err
	}
	// Risk rules read the context source on the SYN/cache-miss path, and
	// its generation keys cached verdicts; without risk rules it is inert.
	p.Context = devctx.NewSource(network.Clock)
	p.Device.BindContext(p.Context)
	if cfg.InitialContext != nil {
		p.Context.Provision(addr, *cfg.InitialContext)
	}

	gwCfg := netsim.GatewayConfig{
		Sanitizer: sanitizer.New(sanitizer.Config{}),
		Workers:   cfg.Workers,
		Clock:     network.Clock,
	}
	if !cfg.SanitizeOnly {
		if !cfg.NoAudit {
			p.Audit = audit.NewWithConfig(audit.Config{
				Writer:   cfg.AuditWriter,
				TailCap:  256,
				QueueCap: cfg.AuditQueueCap,
			})
		}
		enfCfg := enforcer.Config{
			AllowUntagged: cfg.AllowUntagged,
			Audit:         p.Audit,
			Context:       p.Context,
			Clock:         network.Clock,
		}
		ttl := cfg.FlowTTL
		if ttl == 0 {
			ttl = DefaultFlowTTL
		}
		if !cfg.NoFlowCache {
			enfCfg.Flows = enforcer.NewFlowCache(flowtable.Config{
				Capacity: cfg.FlowCapacity,
				TTL:      ttl,
				Clock:    network.Clock,
			})
		}
		p.Enforcer = enforcer.New(enfCfg, p.DB, engine)
		gwCfg.Enforcer = p.Enforcer
		if cfg.Dataplane && !cfg.NoFlowCache {
			cores := cfg.Workers
			if cores <= 0 {
				cores = runtime.GOMAXPROCS(0)
			}
			gwCfg.Dataplane = dataplane.New(dataplane.Config{
				Cores:   cores,
				Entries: cfg.DataplaneEntries,
				TTL:     ttl,
				Clock:   network.Clock,
			}, p.Enforcer)
		}
	}
	p.Gateway = netsim.NewGateway(gwCfg)

	p.Metrics = metrics.NewRegistry()
	p.Manager.RegisterMetrics(p.Metrics)
	if p.Enforcer != nil {
		p.Enforcer.RegisterMetrics(p.Metrics)
	}
	p.Gateway.Sanitizer().RegisterMetrics(p.Metrics)
	p.Gateway.RegisterMetrics(p.Metrics)
	p.Audit.RegisterMetrics(p.Metrics)
	if p.Policy != nil {
		p.Policy.RegisterMetrics(p.Metrics)
	}
	return p, nil
}

// Install analyzes apk into the signature database (the Offline Analyzer
// step; an apk analyzed before is kept), installs it in the device's work
// profile, and serves a static page at every endpoint its functionalities
// reach that has no server on network yet.
func (p *Pipeline) Install(network *netsim.Network, apk *dex.APK, funcs []android.Functionality) (*android.App, error) {
	if err := p.DB.Add(apk); err != nil && !errors.Is(err, analyzer.ErrDuplicateEntry) {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	app, err := p.Device.InstallApp(apk, funcs, android.ProfileWork)
	if err != nil {
		return nil, err
	}
	for _, f := range funcs {
		addr := f.Op.Endpoint.Addr()
		if _, ok := network.ServerAt(addr); !ok {
			network.AddServer(&netsim.Server{
				Addr:    addr,
				Name:    f.Op.Host,
				Handler: httpsim.StaticHandler(httpsim.StaticPage()),
			})
		}
	}
	return app, nil
}

// Close stops the policy store's poller, then flushes and stops the audit
// pipeline, reporting its sticky write error, if any.
func (p *Pipeline) Close() error {
	p.Policy.Close()
	return p.Audit.Close()
}
