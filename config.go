package borderpatrol

import (
	"io"
	"net/netip"
	"time"
)

// PolicyConfig is everything that decides a packet's fate: the rule
// document (or its live backend), the hot-reload cadence, the staleness
// posture, and the defaults applied when no rule is decisive.
type PolicyConfig struct {
	// Doc is a policy document in the paper's grammar; empty means no
	// rules (the default verdict decides everything). Mutually exclusive
	// with Source.
	Doc string
	// Source feeds the policy engine from an external backend (see
	// FilePolicySource, HTTPPolicySource, StaticPolicySource). The initial
	// document loads synchronously — a broken initial policy fails
	// construction — and later revisions hot-swap atomically, keeping the
	// last-good rules on any fetch or parse error.
	Source PolicySource
	// Poll is the hot-reload poll interval when Source is set; 0 disables
	// background polling (ReloadPolicy still works). Successive polls are
	// jittered ±20% so fleets don't thundering-herd the backend. For
	// watch-capable sources Poll is the fallback interval used while the
	// watch path is down.
	Poll time.Duration
	// WatchTimeout bounds how long a watch-capable Source parks one
	// long-poll round (0 selects the store default of 30s). A timeout
	// counts as a healthy unchanged cycle, not staleness.
	WatchTimeout time.Duration
	// MaxStale is the staleness deadline: when the store has not seen a
	// healthy reload cycle for longer than this (in the network's virtual
	// time), it degrades the engine according to FailMode. Zero disables
	// the deadline.
	MaxStale time.Duration
	// FailMode selects the degraded posture past MaxStale: FailStatic
	// keeps the last-good rules serving (the default), FailOpen admits
	// everything, FailClosed denies everything. Recovery is automatic on
	// the next healthy reload.
	FailMode FailMode
	// DefaultVerdict applies when no rule is decisive; zero value means
	// VerdictAllow.
	DefaultVerdict Verdict
	// AllowUntagged admits packets without a BorderPatrol tag (default
	// false: the paper drops them inside the perimeter).
	AllowUntagged bool
	// InitialContext provisions the device's context (network trust class,
	// posture) into the deployment's device-context source at construction,
	// so contextual risk rules in Doc score the very first flow against
	// known context instead of the unknown-device default. nil leaves the
	// device unprovisioned (the least-trusted posture) until it reports or
	// the source is updated via Deployment.Context().
	InitialContext *DeviceContext
}

// FlowConfig shapes the gateway dataplane: the per-flow verdict cache and
// the batch drain.
type FlowConfig struct {
	// CacheSize bounds the gateway's per-flow verdict cache: 0 selects
	// the default (65,536 flows), a negative value disables caching so
	// every packet pays the full decode+evaluate pipeline.
	CacheSize int
	// TTL expires cached flow verdicts after this much virtual time, in
	// the verdict cache and the dataplane alike (0: one minute).
	TTL time.Duration
	// Workers sizes the gateway's per-core batch drain (0 selects
	// GOMAXPROCS).
	Workers int
	// Dataplane compiles the hot rule subset and established-flow verdicts
	// into a per-core match-action stage probed at the netfilter layer
	// before the enforcer queue — the software analogue of a P4 switch
	// table. Requires the flow pipeline (any CacheSize ≥ 0); entries
	// self-invalidate on policy/database/context changes through the same
	// generation contract the verdict cache uses.
	Dataplane bool
	// DataplaneEntries sizes each per-core table (rounded up to a power
	// of two; 0 selects 2048 entries of ~88 bytes).
	DataplaneEntries int
}

// AuditConfig shapes the asynchronous enforcement audit pipeline.
type AuditConfig struct {
	// Writer receives one JSON line per enforcement decision (nil
	// disables file output; the in-memory audit tail is always kept).
	// Entries are recorded asynchronously: the enforcement path appends a
	// compact capture and a background drainer batch-encodes the JSON, so
	// lines reach the writer after the next flush (AuditTail and Close
	// both flush).
	Writer io.Writer
	// QueueCap bounds the pending (recorded but not yet encoded) audit
	// entries; beyond it entries are counted as dropped rather than
	// stalling enforcement (0 selects the audit package default).
	QueueCap int
}

// NetConfig shapes the simulated network and the provisioned device.
type NetConfig struct {
	// Faults arms the network with a deterministic wire-fault plan at
	// construction; nil leaves the wire perfect. SetFaults installs or
	// replaces a plan later.
	Faults *FaultPlan
	// DeviceAddr overrides the device network address.
	DeviceAddr netip.Addr
	// HardenedKernel enables the set-once IP_OPTIONS protection against
	// tag replay (§VII). Defaults to true.
	HardenedKernel *bool
}

// Config assembles a BorderPatrol deployment from its four concerns. The
// same sub-configs parameterize each gateway of a Fleet, so single-gateway
// and fleet deployments read the same way — one gateway is just the N=1
// special case.
type Config struct {
	Policy PolicyConfig
	Flow   FlowConfig
	Audit  AuditConfig
	Net    NetConfig
}
