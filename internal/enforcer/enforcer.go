// Package enforcer implements BorderPatrol's Policy Enforcer (paper
// §IV-A3, §V-C): the network-side component that inspects every packet
// leaving the BYOD perimeter in three stages — (i) extraction of the app
// hash and index sequence from IP_OPTIONS, (ii) decoding indexes back to
// method signatures through the Offline Analyzer's database, and
// (iii) enforcement of the configured policy rules.
//
// Per the paper's deployment discussion (§VII "Compatibility"), packets
// without a BorderPatrol tag are dropped by default: inside the perimeter
// every work-profile packet must originate from a socket the Context
// Manager controls, so untagged traffic is either a personal app that has
// no business on the corporate network or an evasion attempt (e.g. native
// sockets).
//
// When a flow cache is configured (Config.Flows), the enforcer exploits
// the paper's §VI-D observation that every packet of a connection carries
// the same contextual tag: the first packet of a flow pays the full
// extract–decode–evaluate pipeline, and every later packet is answered by
// a single flow-table probe keyed on the raw tag bytes — no tag decode,
// no stack decode, no policy evaluation. Cached verdicts self-invalidate
// when the policy engine or the signature database changes (generation
// counters), so the fast path can never serve a pre-reconfiguration
// decision.
package enforcer

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"borderpatrol/internal/analyzer"
	"borderpatrol/internal/devctx"
	"borderpatrol/internal/dex"
	"borderpatrol/internal/flowtable"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/tag"
	"borderpatrol/internal/transport"
)

// FlowCache caches one enforcement Result per flow. Cached Results share
// their Stack slice and Decision pointer across every packet of the flow;
// both are immutable once published and must not be mutated by callers.
type FlowCache = flowtable.Table[Result]

// NewFlowCache builds a verdict cache for the enforcer.
func NewFlowCache(cfg flowtable.Config) *FlowCache {
	return flowtable.New[Result](cfg)
}

// AuditSink receives enforcement decisions. Implementations must never
// block: the enforcer calls Record on the per-packet path and RecordBatch
// once per batched drain (audit.Log satisfies this with a bounded async
// pipeline that sheds load instead of stalling enforcement).
type AuditSink interface {
	// Record captures one decision.
	Record(pkt *ipv4.Packet, res Result)
	// RecordBatch captures a burst; res[i] corresponds to pkts[i].
	RecordBatch(pkts []*ipv4.Packet, res []Result)
}

// Config selects enforcer behaviour for edge cases.
type Config struct {
	// AllowUntagged admits packets without a BorderPatrol option instead of
	// dropping them (useful for staged rollouts; the paper's deployment
	// drops them).
	AllowUntagged bool
	// AllowUnknownApps admits tagged packets whose app hash is not in the
	// database. The default (false) drops them: an unprovisioned or
	// repackaged app must not exfiltrate just by being unknown.
	AllowUnknownApps bool
	// Flows enables per-flow verdict caching (nil disables it). The cache
	// is consulted before tag decoding; see the package comment.
	Flows *FlowCache
	// Audit receives every decision (nil disables auditing). Process
	// records per packet; ProcessBatch records once per burst.
	Audit AuditSink
	// Context supplies per-device context for the policy's risk program
	// (nil disables the contextual dimension). It is consulted only on the
	// SYN/cache-miss path — and only when the loaded rule set actually
	// carries risk rules — so the per-packet cache-hit path never touches
	// it. Its generation is folded into the flow-cache generation, so a
	// device-context change invalidates cached verdicts the same way a
	// policy swap does.
	Context *devctx.Source
	// Clock supplies virtual time for the risk program's time-of-day and
	// weekday predicates (nil pins them to Monday 00:00).
	Clock devctx.Clock
}

// DropCause classifies why the enforcer dropped a packet.
type DropCause int

// Drop causes.
const (
	// DropNone means the packet was accepted.
	DropNone DropCause = iota
	// DropUntagged is a packet without the BorderPatrol IP option.
	DropUntagged
	// DropMalformedTag is a tag that failed to decode.
	DropMalformedTag
	// DropUnknownApp is a tag whose app hash is not in the database.
	DropUnknownApp
	// DropBadIndex is a tag with an index outside the app's method table.
	DropBadIndex
	// DropPolicy is a packet denied by a policy rule (or default).
	DropPolicy
	// DropRisk is a flow denied by its contextual risk score reaching the
	// block threshold (access rules would have admitted it).
	DropRisk
	// DropSeqInjection is a response-direction TCP segment whose sequence
	// number broke the connection's continuity — the mid-stream injection
	// signature the gateway's directional verdict state exists to catch.
	DropSeqInjection

	// dropCauseCount sizes per-cause counters; keep it last so new causes
	// automatically grow the counter array.
	dropCauseCount
)

// NumDropCauses is the number of defined drop causes (DropNone included);
// external stages sizing per-cause state use it instead of guessing.
const NumDropCauses = int(dropCauseCount)

// String names the drop cause.
func (c DropCause) String() string {
	switch c {
	case DropNone:
		return "accepted"
	case DropUntagged:
		return "untagged"
	case DropMalformedTag:
		return "malformed-tag"
	case DropUnknownApp:
		return "unknown-app"
	case DropBadIndex:
		return "bad-index"
	case DropPolicy:
		return "policy"
	case DropRisk:
		return "risk"
	case DropSeqInjection:
		return "seq-injection"
	default:
		return fmt.Sprintf("cause(%d)", int(c))
	}
}

// Result reports the enforcer's decision for one packet, with the decoded
// context for auditing and the Policy Extractor. Results served from the
// flow cache share Stack and Decision across packets of the flow; treat
// both as read-only.
type Result struct {
	Verdict policy.Verdict
	Cause   DropCause
	// AppHash is the decoded app identity (zero when untagged).
	AppHash dex.TruncatedHash
	// Stack is the decoded stack trace (nil when undecodable).
	Stack []dex.Signature
	// Decision carries the policy engine's reasoning when it ran.
	Decision *policy.Decision
}

// Stats counts enforcement outcomes.
type Stats struct {
	Processed      uint64
	Accepted       uint64
	Dropped        uint64
	DroppedByCause map[DropCause]uint64
	// Flow snapshots the verdict cache (zero value when caching is off).
	Flow flowtable.Stats
	// BatchMemoHits counts packets answered by ProcessBatch's same-flow
	// memo without even a flow-table probe (keep-alive trains).
	BatchMemoHits uint64
}

// scratch is the pooled per-packet working set: the decoded tag and the
// stack-decode buffer. Pooling both keeps the miss path free of scratch
// allocations; only data that escapes into a Result is copied out.
type scratch struct {
	tag   tag.Tag
	stack []dex.Signature
}

// Latency sampling masks. The hot paths cannot afford two time.Now calls
// per packet (~40–50 ns against a ~100 ns cache-hit budget), so latency
// histograms are fed from a uniform sample: a packet is timed when a
// per-M fastrand word masks to zero. Sampling is unbiased (the decision
// is taken before the timed work starts) and the untimed packets pay only
// the ~2 ns rand draw and a branch.
const (
	// hitSampleMask times 1-in-64 cache-hit packets — the path runs
	// millions of times a second, so the histogram stays dense anyway.
	hitSampleMask = 63
	// missSampleMask times 1-in-16 full-pipeline misses (one per flow in
	// the steady state; floods still produce ample samples).
	missSampleMask = 15
	// evalSampleMask times 1-in-16 policy-engine evaluations.
	evalSampleMask = 15
)

// instruments is the enforcer's always-on latency telemetry. The
// histograms are allocation-free fixed arrays (~1 KiB each) recorded with
// two atomic adds, so they exist whether or not a registry ever scrapes
// them — the gated benchmarks measure the instrumented path.
type instruments struct {
	// hitLatency is the sampled flow-table-hit latency of Process and
	// ProcessBatch (batch-memo hits skip the probe and are not timed).
	hitLatency *metrics.Histogram
	// missLatency is the sampled full extract–decode–evaluate pipeline
	// latency (flow-cache misses and uncached configurations).
	missLatency *metrics.Histogram
	// evalLatency is the sampled policy-engine Evaluate latency (stage 3
	// alone, a subset of missLatency).
	evalLatency *metrics.Histogram
	// batchLatency is the whole-ProcessBatch wall time; batchPackets the
	// burst size, so ns/packet is derivable per quantile band.
	batchLatency *metrics.Histogram
	batchPackets *metrics.Histogram
	// riskScore is the per-flow contextual risk score, recorded once per
	// SYN-time evaluation (negative scores clamp to the zero bucket).
	riskScore *metrics.Histogram
}

func newInstruments() instruments {
	return instruments{
		hitLatency:   metrics.NewHistogram(),
		missLatency:  metrics.NewHistogram(),
		evalLatency:  metrics.NewHistogram(),
		batchLatency: metrics.NewHistogram(),
		batchPackets: metrics.NewHistogram(),
		riskScore:    metrics.NewHistogram(),
	}
}

// Enforcer evaluates packets against a policy using a signature database.
// It is safe for concurrent use and scales across cores: counters are
// atomic, the per-packet scratch is pooled, and the optional flow cache is
// lock-striped, so parallel Process calls share no globally serialized
// state beyond the database's single resolve RLock on cache misses.
type Enforcer struct {
	cfg    Config
	db     *analyzer.Database
	engine *policy.Engine
	flows  *FlowCache
	audit  AuditSink
	ctxSrc *devctx.Source
	clock  devctx.Clock

	scratches sync.Pool // *scratch, reused across packets

	// Outcome counters are striped metrics counters (one atomic add per
	// packet, padded shards on multi-core), summed only by Stats/scrapes.
	accepted       *metrics.Counter
	dropped        *metrics.Counter
	droppedByCause [dropCauseCount]*metrics.Counter
	batchMemoHits  *metrics.Counter

	ins instruments
}

// New builds an enforcer.
func New(cfg Config, db *analyzer.Database, engine *policy.Engine) *Enforcer {
	e := &Enforcer{
		cfg:           cfg,
		db:            db,
		engine:        engine,
		flows:         cfg.Flows,
		audit:         cfg.Audit,
		ctxSrc:        cfg.Context,
		clock:         cfg.Clock,
		scratches:     sync.Pool{New: func() any { return new(scratch) }},
		accepted:      metrics.NewCounter(),
		dropped:       metrics.NewCounter(),
		batchMemoHits: metrics.NewCounter(),
		ins:           newInstruments(),
	}
	for c := range e.droppedByCause {
		e.droppedByCause[c] = metrics.NewCounter()
	}
	return e
}

// Engine exposes the policy engine (for central reconfiguration).
func (e *Enforcer) Engine() *policy.Engine { return e.engine }

// Database exposes the signature database (the dataplane's rule-stage
// compiler validates tag indexes against each app's method-table size).
func (e *Enforcer) Database() *analyzer.Database { return e.db }

// FlowCacheEnabled reports whether per-flow verdict caching is active.
func (e *Enforcer) FlowCacheEnabled() bool { return e.flows != nil }

// generation combines the policy engine's, the signature database's and —
// when configured — the device-context source's mutation counters into the
// cache generation: a change to any of the three invalidates every cached
// verdict. The layout is db<<42 | context<<21 | engine; aliasing would
// need 2²¹ (~2M) engine swaps or context changes without the other
// counters moving AND a colliding wrap of the lost high bits, which cannot
// happen in a deployment's lifetime. Reading the context generation is one
// extra atomic load on the per-packet path (~1 ns).
func (e *Enforcer) generation() uint64 {
	g := e.db.Generation()<<42 | (e.engine.Generation()&0x1fffff)<<21
	if e.ctxSrc != nil {
		g |= e.ctxSrc.Generation() & 0x1fffff
	}
	return g
}

// CacheGeneration exposes the combined cache generation (see generation)
// to external verdict stages layered below the enforcer: the dataplane's
// per-core match tables stamp entries with it and treat any change as
// invalidation, inheriting the exact contract the flow table uses.
func (e *Enforcer) CacheGeneration() uint64 { return e.generation() }

// flowContext fills fc with the packet's SYN-time context — the source
// device's context snapshot plus the virtual wall-clock position — and
// returns it, or returns nil when the contextual dimension is inactive
// (no source configured, or no risk rules loaded). Runs only on the
// cache-miss path.
func (e *Enforcer) flowContext(pkt *ipv4.Packet, fc *policy.FlowContext) *policy.FlowContext {
	if e.ctxSrc == nil || !e.engine.ContextActive() {
		return nil
	}
	fc.Device, _ = e.ctxSrc.Lookup(pkt.Header.Src)
	if e.clock != nil {
		fc.MinuteOfDay, fc.Weekday = policy.TimeOfVirtual(e.clock.Now())
	}
	return fc
}

// flowKey fills the cache key for a tagged packet without decoding the
// tag: the full 5-tuple — endpoints and protocol from the IPv4 header,
// real transport ports peeked (zero-alloc, structural checks only) out of
// the TCP/UDP header — and the tag payload (which begins with the app's
// truncated hash) pinned verbatim plus its digest. Real ports mean two
// apps talking to the same host pair get distinct flow entries, and every
// TCP connection is its own flow (so teardown on FIN cannot evict a
// sibling connection's verdict). Ports stay zero for legacy plain
// payloads (no transport header) and for non-first fragments — PeekPacket
// refuses both, so garbage bytes can never be keyed as ports. ok is false
// for oversized tag payloads, which must bypass the cache. The key is
// filled through a pointer so the hot path never copies the ~100-byte Key
// across call frames.
func flowKey(k *flowtable.Key, pkt *ipv4.Packet, tagData []byte) (ok bool) {
	k.Src = pkt.Header.Src
	k.Dst = pkt.Header.Dst
	k.Proto = pkt.Header.Protocol
	k.SrcPort, k.DstPort = 0, 0
	if sp, dp, hasTransport := transport.PeekPorts(pkt.Header.Protocol, pkt.Header.FragOff, pkt.Payload); hasTransport {
		k.SrcPort = sp
		k.DstPort = dp
	}
	return k.SetTag(tagData)
}

// Process runs the three enforcement stages on one packet, short-circuited
// by the flow cache when one is configured. It is ProcessBatch's per-packet
// path without the same-flow memo, audited per packet.
func (e *Enforcer) Process(pkt *ipv4.Packet) Result {
	var res Result
	e.process(pkt, nil, &res)
	e.count(&res)
	if e.audit != nil {
		e.audit.Record(pkt, res)
	}
	return res
}

// count updates the outcome counters for one processed packet (the
// processed total is derived as accepted+dropped, keeping the hot path at
// one counter update per packet).
func (e *Enforcer) count(res *Result) {
	if res.Verdict == policy.VerdictAllow {
		e.accepted.Inc()
	} else {
		e.dropped.Inc()
		if res.Cause >= 0 && int(res.Cause) < len(e.droppedByCause) {
			e.droppedByCause[res.Cause].Inc()
		}
	}
}

// batchMemo is ProcessBatch's per-drain state. The same-flow memo is the
// last flow-table answer of the drain, reused without a probe while the
// next packet carries the same key under the same generation (a keep-alive
// train). tick paces the hit-latency sample: one random draw per drain
// picks the phase, then every hitSampleMask+1'th probe is timed, sparing
// the per-packet draw the scalar path pays.
type batchMemo struct {
	key   flowtable.Key
	gen   uint64
	res   Result
	valid bool
	tick  uint32
}

// process is the one per-packet enforcement path behind Process and
// ProcessBatch: the untagged check, the full pipeline when the packet is
// uncached or uncacheable, otherwise the memo (batch drains only; nil
// from Process), the flow-table probe and the insert of a miss's verdict.
func (e *Enforcer) process(pkt *ipv4.Packet, memo *batchMemo, res *Result) {
	// Stage 1: extraction.
	opt, tagged := pkt.Header.FindOption(ipv4.OptSecurity)
	if !tagged {
		*res = e.untagged()
		return
	}
	if e.flows == nil {
		*res = e.timedEvaluate(pkt, opt.Data)
		return
	}
	// Fast path: probe the flow table on the raw tag bytes. The generation
	// is read before the probe (and before any evaluation) so that a
	// concurrent SetRules/AddEntry makes the inserted entry stale rather
	// than letting a pre-update verdict survive under the new generation.
	gen := e.generation()
	var key flowtable.Key
	if !flowKey(&key, pkt, opt.Data) {
		*res = e.timedEvaluate(pkt, opt.Data)
		return
	}
	if memo != nil && memo.valid && key == memo.key && gen == memo.gen {
		e.batchMemoHits.Inc()
		*res = memo.res
		return
	}
	// The sampling decision precedes the probe so the timed subset is an
	// unbiased slice of lookups.
	var timed bool
	if memo != nil {
		memo.tick++
		timed = memo.tick&hitSampleMask == 0
	} else {
		timed = rand.Uint32()&hitSampleMask == 0
	}
	var hitStart time.Time
	if timed {
		hitStart = time.Now()
	}
	var ok bool
	if *res, ok = e.flows.Lookup(key, gen); ok {
		if timed {
			e.ins.hitLatency.Record(time.Since(hitStart).Nanoseconds())
		}
	} else {
		*res = e.timedEvaluate(pkt, opt.Data)
		e.flows.Insert(key, gen, *res)
	}
	if memo != nil {
		memo.key = key
		memo.gen = gen
		memo.res = *res
		memo.valid = true
	}
}

// timedEvaluate runs the full miss pipeline, recording its latency for a
// sampled subset of calls.
func (e *Enforcer) timedEvaluate(pkt *ipv4.Packet, data []byte) Result {
	if rand.Uint32()&missSampleMask != 0 {
		return e.evaluateTag(pkt, data)
	}
	start := time.Now()
	res := e.evaluateTag(pkt, data)
	e.ins.missLatency.Record(time.Since(start).Nanoseconds())
	return res
}

func (e *Enforcer) untagged() Result {
	if e.cfg.AllowUntagged {
		return Result{Verdict: policy.VerdictAllow}
	}
	return Result{Verdict: policy.VerdictDrop, Cause: DropUntagged}
}

// evaluateTag is the full miss path: decode the tag, decode the stack,
// evaluate policy — including, when configured, the contextual risk
// program over the source device's context (the paper's "evaluate once at
// SYN time" point: whatever this returns is what the flow cache serves for
// the rest of the flow). Scratch buffers are pooled; only the Stack and
// Decision that escape into the Result are freshly allocated (once per
// flow when caching is on).
func (e *Enforcer) evaluateTag(pkt *ipv4.Packet, data []byte) Result {
	sc := e.scratches.Get().(*scratch)
	defer e.scratches.Put(sc)

	if err := tag.DecodeInto(&sc.tag, data); err != nil {
		return Result{Verdict: policy.VerdictDrop, Cause: DropMalformedTag}
	}

	// Stage 2: decoding via the analyzer database — the app resolves once
	// and the whole stack decodes through the lock-free handle into the
	// pooled scratch buffer.
	resolver, known := e.db.Resolve(sc.tag.AppHash)
	if !known {
		if e.cfg.AllowUnknownApps {
			return Result{Verdict: policy.VerdictAllow, AppHash: sc.tag.AppHash}
		}
		return Result{Verdict: policy.VerdictDrop, Cause: DropUnknownApp, AppHash: sc.tag.AppHash}
	}
	stack, err := resolver.DecodeStackInto(sc.stack[:0], sc.tag.Indexes)
	if err != nil {
		return Result{Verdict: policy.VerdictDrop, Cause: DropBadIndex, AppHash: sc.tag.AppHash}
	}
	sc.stack = stack // retain grown capacity for the next packet

	// Stage 3: enforcement (latency sampled; see instruments). The flow
	// context — device posture, network class, velocity, virtual clock —
	// is built here, once per flow, and folded into the cached decision.
	var fcBuf policy.FlowContext
	fc := e.flowContext(pkt, &fcBuf)
	var decision policy.Decision
	if rand.Uint32()&evalSampleMask == 0 {
		evalStart := time.Now()
		decision = e.engine.EvaluateFlow(sc.tag.AppHash, stack, fc)
		e.ins.evalLatency.Record(time.Since(evalStart).Nanoseconds())
	} else {
		decision = e.engine.EvaluateFlow(sc.tag.AppHash, stack, fc)
	}
	if decision.RiskApplied {
		e.ins.riskScore.Record(int64(decision.RiskScore))
	}
	res := Result{
		Verdict: decision.Verdict,
		AppHash: sc.tag.AppHash,
		// The scratch buffer goes back to the pool; the escaping Result
		// needs its own copy (shared by every cache hit of this flow).
		Stack:    append(make([]dex.Signature, 0, len(stack)), stack...),
		Decision: &decision,
	}
	if decision.Verdict == policy.VerdictDrop {
		if decision.RiskBlocked {
			res.Cause = DropRisk
		} else {
			res.Cause = DropPolicy
		}
	}
	return res
}

// ProcessBatch enforces a batch of packets, amortizing work across packets
// of the same flow when a flow cache is configured: consecutive packets
// with identical flow keys (the common shape of a keep-alive train or an
// upload burst) reuse the previous packet's Result without even probing
// the flow table, and the flow table covers non-adjacent repeats. With
// caching disabled every packet pays the full pipeline — the uncached
// configuration is a true per-packet baseline. Results are written to
// out (reusing its backing array when large enough) and returned; out[i]
// corresponds to pkts[i]. Safe for concurrent use — a per-core worker
// pool can split one queue drain into independent ProcessBatch calls.
func (e *Enforcer) ProcessBatch(pkts []*ipv4.Packet, out []Result) []Result {
	if cap(out) < len(pkts) {
		out = make([]Result, len(pkts))
	} else {
		out = out[:len(pkts)]
	}
	// Per-burst timing: two clock reads and two histogram records for the
	// whole batch (~1 ns/packet at the default burst size), not per packet.
	batchStart := time.Now()
	memo := batchMemo{tick: rand.Uint32()}
	for i, pkt := range pkts {
		e.process(pkt, &memo, &out[i])
		e.count(&out[i])
	}
	if e.audit != nil {
		// One audit charge for the whole burst (a single stripe lock in the
		// async pipeline), not one per packet.
		e.audit.RecordBatch(pkts, out)
	}
	if len(pkts) > 0 {
		e.ins.batchLatency.Record(time.Since(batchStart).Nanoseconds())
		e.ins.batchPackets.Record(int64(len(pkts)))
	}
	return out
}

// EndFlow removes a packet's flow from the verdict cache — the explicit
// teardown the gateway calls when it observes a connection close, so dead
// flows free their slot immediately instead of waiting for TTL or
// eviction pressure. The next packet on the same flow re-resolves through
// the full pipeline. Reports whether a cached verdict was removed.
func (e *Enforcer) EndFlow(pkt *ipv4.Packet) bool {
	if e.flows == nil {
		return false
	}
	opt, tagged := pkt.Header.FindOption(ipv4.OptSecurity)
	if !tagged {
		return false
	}
	var key flowtable.Key
	if !flowKey(&key, pkt, opt.Data) {
		return false
	}
	return e.flows.Delete(key)
}

// SweepFlows reclaims TTL-expired verdict-cache entries (half-open flows
// whose teardown the gateway never saw — a lost FIN, a silently dead
// device). Returns how many entries it freed; zero when caching is off or
// the cache has no TTL.
func (e *Enforcer) SweepFlows() int {
	if e.flows == nil {
		return 0
	}
	return e.flows.Sweep()
}

// PurgeFlows empties the verdict cache — the gateway calls this when it
// restarts, modelling the total loss of dataplane state: every live flow's
// next packet re-resolves through the full extract–decode–evaluate
// pipeline.
func (e *Enforcer) PurgeFlows() {
	if e.flows != nil {
		e.flows.Purge()
	}
}

// Stats returns a snapshot of the counters.
func (e *Enforcer) Stats() Stats {
	accepted := e.accepted.Value()
	dropped := e.dropped.Value()
	out := Stats{
		Processed:      accepted + dropped,
		Accepted:       accepted,
		Dropped:        dropped,
		DroppedByCause: make(map[DropCause]uint64),
		BatchMemoHits:  e.batchMemoHits.Value(),
	}
	for c := range e.droppedByCause {
		if n := e.droppedByCause[c].Value(); n > 0 {
			out.DroppedByCause[DropCause(c)] = n
		}
	}
	if e.flows != nil {
		out.Flow = e.flows.Stats()
	}
	return out
}

// RegisterMetrics attaches the enforcer's instruments — verdict and
// drop-cause counters, the sampled latency histograms, the flow-cache
// counters, and the policy engine's evaluation counters — to a registry.
// Everything except the histograms is exported through scrape-time
// closures over counters the enforcer already maintains, so registration
// adds zero hot-path cost.
func (e *Enforcer) RegisterMetrics(r *metrics.Registry) {
	const verdictHelp = "Enforcement verdicts by decision."
	r.CounterFunc("bp_enforcer_verdicts_total", verdictHelp, e.accepted.Value, metrics.L("decision", "allow"))
	r.CounterFunc("bp_enforcer_verdicts_total", verdictHelp, e.dropped.Value, metrics.L("decision", "drop"))
	for c := DropUntagged; c < dropCauseCount; c++ {
		r.CounterFunc("bp_enforcer_drops_total", "Dropped packets by cause.",
			e.droppedByCause[c].Value, metrics.L("cause", c.String()))
	}
	r.CounterFunc("bp_enforcer_batch_memo_hits_total",
		"Packets answered by the batch drain's same-flow memo without a flow-table probe.",
		e.batchMemoHits.Value)

	r.RegisterHistogram("bp_enforcer_cache_hit_latency_ns",
		"Flow-table-hit enforcement latency (sampled 1/64).", e.ins.hitLatency)
	r.RegisterHistogram("bp_enforcer_cache_miss_latency_ns",
		"Full extract-decode-evaluate pipeline latency (sampled 1/16).", e.ins.missLatency)
	r.RegisterHistogram("bp_enforcer_evaluate_latency_ns",
		"Policy-engine Evaluate latency (sampled 1/16).", e.ins.evalLatency)
	r.RegisterHistogram("bp_enforcer_batch_latency_ns",
		"ProcessBatch wall time per burst.", e.ins.batchLatency)
	r.RegisterHistogram("bp_enforcer_batch_packets",
		"Packets per ProcessBatch burst.", e.ins.batchPackets)

	if fl := e.flows; fl != nil {
		r.CounterFunc("bp_flowtable_hits_total", "Flow-cache lookups answered without decoding.",
			func() uint64 { return fl.Stats().Hits })
		r.CounterFunc("bp_flowtable_misses_total", "Flow-cache lookups that paid the full pipeline.",
			func() uint64 { return fl.Stats().Misses })
		r.CounterFunc("bp_flowtable_inserts_total", "Flow-cache entries inserted.",
			func() uint64 { return fl.Stats().Inserts })
		r.CounterFunc("bp_flowtable_evictions_total", "Flows evicted under capacity pressure.",
			func() uint64 { return fl.Stats().Evictions })
		r.CounterFunc("bp_flowtable_stale_drops_total", "Cached verdicts invalidated by a generation change.",
			func() uint64 { return fl.Stats().StaleDrops })
		r.CounterFunc("bp_flowtable_expired_drops_total", "Cached verdicts expired by TTL.",
			func() uint64 { return fl.Stats().ExpiredDrops })
		r.CounterFunc("bp_flowtable_admission_drops_total", "Inserts refused by the negative-cache admission guard.",
			func() uint64 { return fl.Stats().AdmissionDrops })
		r.GaugeFunc("bp_flowtable_live", "Flows currently cached.",
			func() float64 { return float64(fl.Stats().Live) })
	}

	eng := e.engine
	r.CounterFunc("bp_policy_evaluations_total", "Packets that reached the compiled policy engine.",
		func() uint64 { return eng.Stats().Evaluations })
	r.CounterFunc("bp_policy_default_hits_total", "Evaluations decided by the default verdict.",
		func() uint64 { return eng.Stats().DefaultHits })
	r.CounterFunc("bp_policy_degraded_hits_total", "Packets decided by a degraded-posture override.",
		func() uint64 { return eng.Stats().DegradedHits })

	// Contextual-risk families: SYN-time evaluations, their outcomes, the
	// score distribution, and (when a source is wired) the device-side
	// generation and per-cause invalidation counters.
	r.CounterFunc("bp_context_evaluations_total",
		"Flows scored by the contextual risk program (once per flow, at SYN time).",
		func() uint64 { return eng.Stats().RiskEvaluations })
	r.CounterFunc("bp_context_warns_total",
		"Risk evaluations that reached the warn threshold (admitted, flagged).",
		func() uint64 { return eng.Stats().RiskWarns })
	r.CounterFunc("bp_context_blocks_total",
		"Risk evaluations that reached the block threshold (flow dropped).",
		func() uint64 { return eng.Stats().RiskBlocks })
	r.RegisterHistogram("bp_context_risk_score",
		"Per-flow contextual risk score at SYN-time evaluation.", e.ins.riskScore)
	if e.ctxSrc != nil {
		e.ctxSrc.RegisterMetrics(r)
	}
}
