// Package dataplane implements a per-core compiled match-action stage
// below the Policy Enforcer — the software analogue of the P4 switch
// tables Poise ("Programmable In-Network Security for Context-aware BYOD
// Policies") compiles the same policy class into. Where the enforcer's
// flow table is a sharded cross-core cache probed from user space, the
// dataplane is what a hardware offload would be: each simulated core owns
// a flat open-addressed array of fixed-size, pointer-free entries keyed
// on the (5-tuple, tag bytes) flow identity, probed at the kernel's
// netfilter layer before any queue handler runs. A probe is a hash, at
// most a handful of linear slot inspections, and zero shared-state
// traffic; only misses fall through to the full enforcer, whose results
// are promoted back into the owning core's table.
//
// # Invalidation contract
//
// The dataplane inherits the flow table's generation contract: every
// entry is stamped with the enforcer's combined cache generation
// (policy ⊕ database ⊕ device-context), probes compare against the live
// generation read per packet, and any mismatch makes the entry stale on
// contact — a SetRules/AddEntry/context change invalidates every core's
// state without touching it. Entries promoted mid-reconfiguration are
// stamped with the generation read when the core was acquired (before
// the enforcer evaluated), so a verdict computed under old rules can
// never masquerade as current.
//
// Connection teardown crosses cores through a bounded purge ring: the
// gateway publishes the closed flow's digest, and each core drains the
// ring when it is next acquired (falling back to a full table clear if
// it lags more than half the ring). A gateway restart bumps a flush
// epoch that clears each core's table on next acquisition. Both paths
// are advisory-latency, mandatory-correctness: a not-yet-drained entry
// can only serve the same verdict a fresh evaluation would produce,
// because anything verdict-changing moves the generation.
//
// # What a hit carries
//
// Like a hardware offload, the fast path returns only the verdict and
// drop cause — not the decoded stack or policy decision the enforcer's
// Result carries (that metadata lives in the slow path and the audit
// trail). Untagged packets are never answered here, so the enforcer's
// untagged accounting stays exact.
//
// # Directional state
//
// Each entry also tracks forward-direction TCP sequence continuity
// (anomalies are counted, never dropped — a faulty wire legitimately
// duplicates and reorders), while the response half of a connection is
// enforced by the gateway's conntrack with the dataplane's
// seq-injection drop cause. See netsim.Conntrack.ObserveResponse.
package dataplane

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"borderpatrol/internal/devctx"
	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/kernel"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/tag"
	"borderpatrol/internal/transport"
)

// Table geometry.
const (
	// defaultEntries is the per-core table size when Config.Entries is 0.
	defaultEntries = 2048
	// probeWindow bounds the linear probe: an insert that finds no free
	// slot within the window evicts the oldest entry in it, so lookups
	// inspect at most probeWindow slots.
	probeWindow = 8
	// purgeRingSize is the teardown ring shared by all cores. A core that
	// falls more than half the ring behind clears its whole table instead
	// of replaying invalidation it may have lost to wrap-around.
	purgeRingSize = 1024
	// doorkeeperSize is the per-core recent-miss filter. A promotion
	// that finds room in its probe window lands at once; one that would
	// evict a live entry lands only on the flow's second miss, so a flood
	// of unique flows cannot churn established entries out of the table
	// (the flat-table analogue of the flow table's miss-ring admission:
	// admit while there is room, gate only under pressure).
	doorkeeperSize = 64
)

// Entry states.
const (
	stateEmpty uint8 = iota // never used; terminates probe chains
	stateLive               // holds a valid promotion
	stateTomb               // deleted; probe chains continue through it
)

// entry is one match-action slot: fixed size, no pointers, no sharing —
// the layout a hardware table would hold. Addresses are raw IPv4 words
// (netip.Addr carries an interned pointer and is banned here).
type entry struct {
	digest uint64 // key hash; filter before the full compare
	gen    uint64 // enforcer cache generation at promotion
	born   int64  // virtual ns at promotion (TTL)

	src, dst uint32 // big-endian IPv4 addresses
	fwdNext  uint32 // next expected forward TCP sequence number

	srcPort, dstPort uint16

	proto   uint8
	tagLen  uint8
	state   uint8
	verdict uint8 // policy.Verdict
	cause   uint8 // enforcer.DropCause
	fwdSeen uint8 // 1 once fwdNext is primed

	tagBytes [tag.MaxEncoded]byte
}

// Config sizes the dataplane.
type Config struct {
	// Cores is the number of independent single-owner tables (≤0 picks 1).
	// Size it to the worker pool that drains batches: each concurrent
	// drain leases one core for the duration of its burst.
	Cores int
	// Entries is the per-core table size, rounded up to a power of two
	// (0 = 2048). Each entry is ~88 bytes.
	Entries int
	// TTL expires entries older than this in virtual time (0 = no expiry;
	// requires Clock).
	TTL time.Duration
	// Clock supplies virtual time for TTL expiry (nil = no expiry).
	Clock devctx.Clock
}

// Stats snapshots the dataplane's counters.
type Stats struct {
	// Hits are probes answered from a core's flat table; RuleHits are
	// probes answered by the compiled hash-decisive rule stage (and then
	// promoted). Misses fell through to the full enforcer.
	Hits, RuleHits, Misses uint64
	// Promotions counts entries written; AdmissionSkips first-miss flows
	// the doorkeeper refused to promote because their probe window was
	// full and promoting them would have evicted a live entry.
	Promotions, AdmissionSkips uint64
	// StaleDrops counts entries invalidated on contact by a generation
	// change; Expired entries aged out by TTL.
	StaleDrops, Expired uint64
	// Invalidations counts teardown digests published to the purge ring;
	// Flushes full-table clears (restart epochs and purge-ring overruns).
	Invalidations, Flushes uint64
	// SeqAnomalies counts forward-direction TCP sequence discontinuities
	// observed on hits (counted only — duplication and reordering are
	// legitimate wire behaviour).
	SeqAnomalies uint64
	// RuleStageApps is the number of apps the current compiled rule stage
	// answers for; RuleStageBuilds how many times the stage was rebuilt.
	RuleStageApps   int
	RuleStageBuilds uint64
}

// Dataplane is the multi-core match-action stage. Construct with New,
// register on the kernel with Netfilter.RegisterDataplane, and feed
// teardown through Invalidate and restarts through Flush.
type Dataplane struct {
	enf   *enforcer.Enforcer
	cores []*Core
	rotor atomic.Uint32

	ttl   time.Duration
	clock devctx.Clock

	// stage is the compiled hash-decisive rule stage (see rules.go).
	stage   atomic.Pointer[ruleStage]
	stageMu sync.Mutex

	// purge ring: Invalidate appends closed-flow digests under purgeMu;
	// cores drain [purgeSeen, purgeSeq) at acquisition. Slots are atomic
	// so a draining core never races the writer.
	purgeMu   sync.Mutex
	purgeSeq  atomic.Uint64
	purgeRing [purgeRingSize]atomic.Uint64

	// flushSeq is the restart epoch: any bump clears each core's table on
	// its next acquisition.
	flushSeq atomic.Uint64

	hits           *metrics.Counter
	ruleHits       *metrics.Counter
	misses         *metrics.Counter
	promotions     *metrics.Counter
	admissionSkips *metrics.Counter
	staleDrops     *metrics.Counter
	expired        *metrics.Counter
	invalidations  *metrics.Counter
	flushes        *metrics.Counter
	seqAnomalies   *metrics.Counter
	stageBuilds    *metrics.Counter
}

// Core is one simulated core's single-owner table. A Core is leased via
// Acquire, used for one batch drain (Probe per packet, Promote per
// miss), and Released; while leased, nothing else touches its entries.
type Core struct {
	dp      *Dataplane
	busy    atomic.Bool
	entries []entry
	mask    uint64

	// Lease-scoped state, set by begin().
	acquireGen uint64
	now        int64
	purgeSeen  uint64
	flushSeen  uint64

	// Per-lease probe tallies, kept as plain single-owner fields and
	// flushed to the shared sharded counters at Release — a probe must
	// not pay a randomized atomic. Anomalies ride along because repeated
	// keep-alive segments (same seq every packet) trip one per probe.
	leaseHits      uint64
	leaseMisses    uint64
	leaseAnomalies uint64

	door    [doorkeeperSize]uint64
	doorPos int
}

// interned is the fixed Result set fast-path hits return: one allow plus
// one per drop cause. Pointer-stable, so attaching one as a batch Aux
// allocates nothing.
var interned [enforcer.NumDropCauses]enforcer.Result

func init() {
	interned[0] = enforcer.Result{Verdict: policy.VerdictAllow}
	for c := 1; c < enforcer.NumDropCauses; c++ {
		interned[c] = enforcer.Result{Verdict: policy.VerdictDrop, Cause: enforcer.DropCause(c)}
	}
}

// New builds a dataplane compiled from (and invalidated by) the given
// enforcer.
func New(cfg Config, enf *enforcer.Enforcer) *Dataplane {
	cores := cfg.Cores
	if cores <= 0 {
		cores = 1
	}
	entries := cfg.Entries
	if entries <= 0 {
		entries = defaultEntries
	}
	// Round up to a power of two so slot selection is a mask.
	size := 1
	for size < entries {
		size <<= 1
	}
	d := &Dataplane{
		enf:            enf,
		ttl:            cfg.TTL,
		clock:          cfg.Clock,
		hits:           metrics.NewCounter(),
		ruleHits:       metrics.NewCounter(),
		misses:         metrics.NewCounter(),
		promotions:     metrics.NewCounter(),
		admissionSkips: metrics.NewCounter(),
		staleDrops:     metrics.NewCounter(),
		expired:        metrics.NewCounter(),
		invalidations:  metrics.NewCounter(),
		flushes:        metrics.NewCounter(),
		seqAnomalies:   metrics.NewCounter(),
		stageBuilds:    metrics.NewCounter(),
	}
	d.cores = make([]*Core, cores)
	for i := range d.cores {
		d.cores[i] = &Core{
			dp:      d,
			entries: make([]entry, size),
			mask:    uint64(size - 1),
		}
	}
	return d
}

// Cores reports how many per-core tables the dataplane holds.
func (d *Dataplane) Cores() int { return len(d.cores) }

// Acquire leases a free core, or returns nil when every core is busy
// (the caller then runs the burst through the slow path alone). The
// rotor spreads concurrent drains across cores so each tends to re-lease
// the table its flows were promoted into.
func (d *Dataplane) Acquire() kernel.DataplaneCore {
	n := len(d.cores)
	start := int(d.rotor.Add(1)-1) % n
	for i := 0; i < n; i++ {
		c := d.cores[(start+i)%n]
		if c.busy.CompareAndSwap(false, true) {
			c.begin()
			return c
		}
	}
	return nil
}

// begin prepares a freshly leased core: apply any pending flush epoch or
// purge-ring teardown, then snapshot the generation and clock once for
// the lease (Promote stamps entries with this pre-evaluation generation,
// which is what closes the promote-vs-invalidate race).
func (c *Core) begin() {
	d := c.dp
	if fs := d.flushSeq.Load(); fs != c.flushSeen {
		c.clear()
		c.flushSeen = fs
		c.purgeSeen = d.purgeSeq.Load()
	} else if cur := d.purgeSeq.Load(); cur != c.purgeSeen {
		if cur-c.purgeSeen > purgeRingSize/2 {
			c.clear()
		} else {
			for i := c.purgeSeen; i < cur; i++ {
				c.purgeDigest(d.purgeRing[i%purgeRingSize].Load())
			}
		}
		c.purgeSeen = cur
	}
	c.acquireGen = d.enf.CacheGeneration()
	c.now = 0
	if d.clock != nil {
		c.now = int64(d.clock.Now())
	}
}

// Release flushes the lease's probe tallies and returns the core to the
// free pool. Hit/miss metrics therefore lag by at most one leased burst.
func (c *Core) Release() {
	if c.leaseHits > 0 {
		c.dp.hits.Add(c.leaseHits)
		c.leaseHits = 0
	}
	if c.leaseMisses > 0 {
		c.dp.misses.Add(c.leaseMisses)
		c.leaseMisses = 0
	}
	if c.leaseAnomalies > 0 {
		c.dp.seqAnomalies.Add(c.leaseAnomalies)
		c.leaseAnomalies = 0
	}
	c.busy.Store(false)
}

// clear wipes the core's table and doorkeeper.
func (c *Core) clear() {
	clear(c.entries)
	clear(c.door[:])
	c.doorPos = 0
	c.dp.flushes.Inc()
}

// purgeDigest tombstones every live entry with the given digest — the
// conservative cross-core teardown (the ring carries digests, not full
// keys, and a rare collision only forces a re-promotion).
func (c *Core) purgeDigest(digest uint64) {
	slot := digest & c.mask
	for i := uint64(0); i < probeWindow; i++ {
		e := &c.entries[(slot+i)&c.mask]
		if e.state == stateEmpty {
			return
		}
		if e.state == stateLive && e.digest == digest {
			e.state = stateTomb
		}
	}
}

// Invalidate publishes a closed flow's teardown to every core: the
// gateway calls it (alongside the enforcer's EndFlow) when its conntrack
// observes a FIN/RST. Each core applies it on its next acquisition.
func (d *Dataplane) Invalidate(pkt *ipv4.Packet) {
	digest, _, ok := packetKey(pkt)
	if !ok {
		return
	}
	d.purgeMu.Lock()
	pos := d.purgeSeq.Load()
	d.purgeRing[pos%purgeRingSize].Store(digest)
	d.purgeSeq.Store(pos + 1)
	d.purgeMu.Unlock()
	d.invalidations.Inc()
}

// Flush bumps the restart epoch: every core clears its table on next
// acquisition. The gateway calls it from Restart, mirroring the flow
// cache's purge — a rebooted appliance must re-resolve every live flow.
func (d *Dataplane) Flush() {
	d.flushSeq.Add(1)
}

// probeKey is the flow identity a probe matches on, precomputed once per
// packet. The TCP fields ride along so the forward-seq tracker never
// parses the transport header a second time.
type probeKey struct {
	digest           uint64
	src, dst         uint32
	seq, dataLen     uint32
	srcPort, dstPort uint16
	proto            uint8
	flags            uint8
	tcpOK            bool
	tagData          []byte
}

// packetKey extracts the flow identity of a tagged packet. ok is false
// for untagged packets (never answered here — the enforcer's untagged
// accounting must stay exact), oversized tags, and non-IPv4 addresses.
func packetKey(pkt *ipv4.Packet) (uint64, probeKey, bool) {
	opt, tagged := pkt.Header.FindOption(ipv4.OptSecurity)
	if !tagged || len(opt.Data) > tag.MaxEncoded {
		return 0, probeKey{}, false
	}
	if !pkt.Header.Src.Is4() || !pkt.Header.Dst.Is4() {
		return 0, probeKey{}, false
	}
	s4 := pkt.Header.Src.As4()
	d4 := pkt.Header.Dst.As4()
	k := probeKey{
		src:     binary.BigEndian.Uint32(s4[:]),
		dst:     binary.BigEndian.Uint32(d4[:]),
		proto:   pkt.Header.Protocol,
		tagData: opt.Data,
	}
	// Same port semantics as the enforcer's flow key: real transport
	// ports when a structurally valid first-fragment header is present,
	// zero otherwise. A passing TCP peek also proves the fixed header
	// layout, so the seq/flags reads below need no further validation.
	if sp, dp, ok := transport.PeekPorts(pkt.Header.Protocol, pkt.Header.FragOff, pkt.Payload); ok {
		k.srcPort, k.dstPort = sp, dp
		if k.proto == ipv4.ProtoTCP {
			k.seq = binary.BigEndian.Uint32(pkt.Payload[4:8])
			k.dataLen = uint32(len(pkt.Payload) - transport.TCPHeaderLen)
			k.flags = pkt.Payload[13]
			k.tcpOK = true
		}
	}
	k.digest = keyDigest(&k)
	return k.digest, k, true
}

// splitmix64 is the finalizer mixing each accumulated word.
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// keyDigest hashes the flow identity: one mix per 8 bytes of tag plus
// two for the 5-tuple words, with the port word and tag length folded in
// between mixes (XOR folds between splitmix finalizer rounds keep the
// probe path two rounds shorter than mixing every word). Zero is
// remapped so a live entry's digest never collides with the zero value
// of an empty slot's filter.
func keyDigest(k *probeKey) uint64 {
	h := splitmix64(0x9e3779b97f4a7c15 ^ (uint64(k.src)<<32 | uint64(k.dst)))
	h ^= uint64(k.srcPort)<<48 | uint64(k.dstPort)<<32 | uint64(k.proto)<<8 | uint64(len(k.tagData))
	b := k.tagData
	for len(b) >= 8 {
		h = splitmix64(h ^ binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
	if len(b) > 0 {
		var tail uint64
		for i, v := range b {
			tail |= uint64(v) << (8 * i)
		}
		h ^= tail
	}
	h = splitmix64(h)
	if h == 0 {
		h = 1
	}
	return h
}

// matches reports whether a live entry holds exactly this flow.
func (e *entry) matches(k *probeKey) bool {
	return e.src == k.src && e.dst == k.dst &&
		e.srcPort == k.srcPort && e.dstPort == k.dstPort &&
		e.proto == k.proto && int(e.tagLen) == len(k.tagData) &&
		string(e.tagBytes[:e.tagLen]) == string(k.tagData)
}

// Probe answers one packet from the core's table or the compiled rule
// stage. ok is false on a miss: the caller must run the packet through
// the full enforcer and then Promote the outcome. The live generation is
// read per packet, so a reconfiguration landing mid-burst invalidates
// entries from that packet on — the same per-probe check the flow table
// makes.
func (c *Core) Probe(pkt *ipv4.Packet) (kernel.Verdict, any, bool) {
	d := c.dp
	digest, k, keyed := packetKey(pkt)
	if !keyed {
		return 0, nil, false
	}
	gen := d.enf.CacheGeneration()
	slot := digest & c.mask
	for i := uint64(0); i < probeWindow; i++ {
		e := &c.entries[(slot+i)&c.mask]
		if e.state == stateEmpty {
			break
		}
		if e.state != stateLive || e.digest != digest || !e.matches(&k) {
			continue
		}
		if e.gen != gen {
			e.state = stateTomb
			d.staleDrops.Inc()
			break
		}
		if d.ttl > 0 && d.clock != nil && c.now-e.born > int64(d.ttl) {
			e.state = stateTomb
			d.expired.Inc()
			break
		}
		c.trackForwardSeq(e, &k)
		c.leaseHits++
		res := &interned[e.cause]
		if e.verdict == uint8(policy.VerdictDrop) {
			return kernel.VerdictDrop, res, true
		}
		return kernel.VerdictAccept, res, true
	}
	// Flow-table miss: the compiled rule stage can still answer packets
	// of apps whose fate no stack can change.
	if v, aux, ok := c.probeRules(gen, &k); ok {
		return v, aux, ok
	}
	c.leaseMisses++
	return 0, nil, false
}

// trackForwardSeq updates the entry's forward-direction TCP continuity
// state on a hit, from the transport fields the key extraction already
// read. Discontinuities are counted, never dropped: a faulty wire
// duplicates and reorders legitimately, and the enforced half of the
// directional state is the response side (conntrack).
func (c *Core) trackForwardSeq(e *entry, k *probeKey) {
	if !k.tcpOK {
		return
	}
	if k.flags&(transport.FlagSYN|transport.FlagFIN|transport.FlagRST) != 0 {
		return
	}
	if e.fwdSeen != 0 && k.seq != e.fwdNext {
		c.leaseAnomalies++
	}
	e.fwdNext = k.seq + k.dataLen
	e.fwdSeen = 1
}

// Promote writes a slow-path outcome into the core's table. aux must be
// the enforcer's *Result for the packet (anything else is ignored); the
// entry is stamped with the lease's pre-evaluation generation, so if a
// reconfiguration raced the evaluation the entry is born stale rather
// than wrongly current. A first-miss flow whose probe window is full only
// primes the doorkeeper.
func (c *Core) Promote(pkt *ipv4.Packet, v kernel.Verdict, aux any) {
	res, ok := aux.(*enforcer.Result)
	if !ok || res == nil {
		return
	}
	if res.Cause == enforcer.DropUntagged {
		return
	}
	switch v {
	case kernel.VerdictAccept, kernel.VerdictDrop:
	default:
		return
	}
	digest, k, keyed := packetKey(pkt)
	if !keyed {
		return
	}
	c.insert(digest, &k, uint8(res.Verdict), uint8(res.Cause), c.acquireGen)
}

// admit is the doorkeeper: true when the digest was seen in the recent
// miss window (second miss — worth a slot), false on first contact.
func (c *Core) admit(digest uint64) bool {
	for _, d := range c.door {
		if d == digest {
			return true
		}
	}
	c.door[c.doorPos] = digest
	c.doorPos = (c.doorPos + 1) % doorkeeperSize
	return false
}

// insert places or refreshes an entry within the probe window. A free or
// tombstoned slot takes it at once; when the window is full, the oldest
// entry is evicted, but only for a flow the doorkeeper admits.
func (c *Core) insert(digest uint64, k *probeKey, verdict, cause uint8, gen uint64) {
	d := c.dp
	slot := digest & c.mask
	victim := -1
	var victimBorn int64
	free := -1
	for i := uint64(0); i < probeWindow; i++ {
		idx := (slot + i) & c.mask
		e := &c.entries[idx]
		switch e.state {
		case stateLive:
			if e.digest == digest && e.matches(k) {
				// Refresh in place; keep the forward-seq state.
				e.gen = gen
				e.born = c.now
				e.verdict = verdict
				e.cause = cause
				return
			}
			if victim < 0 || e.born < victimBorn {
				victim, victimBorn = int(idx), e.born
			}
		default: // empty or tombstone
			if free < 0 {
				free = int(idx)
			}
		}
	}
	at := free
	if at < 0 {
		// Every slot in the window is live: promoting means evicting.
		if !c.admit(digest) {
			d.admissionSkips.Inc()
			return
		}
		at = victim
	}
	e := &c.entries[at]
	*e = entry{
		digest:  digest,
		gen:     gen,
		born:    c.now,
		src:     k.src,
		dst:     k.dst,
		srcPort: k.srcPort,
		dstPort: k.dstPort,
		proto:   k.proto,
		tagLen:  uint8(len(k.tagData)),
		state:   stateLive,
		verdict: verdict,
		cause:   cause,
	}
	copy(e.tagBytes[:], k.tagData)
	d.promotions.Inc()
}

// Stats snapshots the counters.
func (d *Dataplane) Stats() Stats {
	s := Stats{
		Hits:            d.hits.Value(),
		RuleHits:        d.ruleHits.Value(),
		Misses:          d.misses.Value(),
		Promotions:      d.promotions.Value(),
		AdmissionSkips:  d.admissionSkips.Value(),
		StaleDrops:      d.staleDrops.Value(),
		Expired:         d.expired.Value(),
		Invalidations:   d.invalidations.Value(),
		Flushes:         d.flushes.Value(),
		SeqAnomalies:    d.seqAnomalies.Value(),
		RuleStageBuilds: d.stageBuilds.Value(),
	}
	if st := d.stage.Load(); st != nil {
		s.RuleStageApps = len(st.apps)
	}
	return s
}

// RegisterMetrics attaches the dataplane's counters to a registry as the
// bp_dataplane_* families. All are scrape-time closures over counters
// the packet path already maintains.
func (d *Dataplane) RegisterMetrics(r *metrics.Registry) {
	const probeHelp = "Dataplane probes by outcome."
	r.CounterFunc("bp_dataplane_probes_total", probeHelp, d.hits.Value, metrics.L("outcome", "hit"))
	r.CounterFunc("bp_dataplane_probes_total", probeHelp, d.ruleHits.Value, metrics.L("outcome", "rule_hit"))
	r.CounterFunc("bp_dataplane_probes_total", probeHelp, d.misses.Value, metrics.L("outcome", "miss"))
	r.CounterFunc("bp_dataplane_promotions_total",
		"Slow-path outcomes promoted into per-core tables.", d.promotions.Value)
	r.CounterFunc("bp_dataplane_admission_skips_total",
		"First-miss flows the promotion doorkeeper refused (full probe window).", d.admissionSkips.Value)
	r.CounterFunc("bp_dataplane_stale_drops_total",
		"Entries invalidated on contact by a generation change.", d.staleDrops.Value)
	r.CounterFunc("bp_dataplane_expired_total",
		"Entries aged out by TTL.", d.expired.Value)
	r.CounterFunc("bp_dataplane_invalidations_total",
		"Closed-flow teardowns published to the purge ring.", d.invalidations.Value)
	r.CounterFunc("bp_dataplane_flushes_total",
		"Full per-core table clears (restart epochs, purge overruns).", d.flushes.Value)
	r.CounterFunc("bp_dataplane_seq_anomalies_total",
		"Forward-direction TCP sequence discontinuities observed on hits.", d.seqAnomalies.Value)
	r.CounterFunc("bp_dataplane_rule_stage_builds_total",
		"Compiled rule-stage rebuilds (one per generation the stage served).", d.stageBuilds.Value)
	r.GaugeFunc("bp_dataplane_rule_stage_apps",
		"Apps the compiled hash-decisive rule stage currently answers for.",
		func() float64 { return float64(d.Stats().RuleStageApps) })
}
