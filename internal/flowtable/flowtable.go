// Package flowtable implements the gateway's per-flow verdict cache: a
// sharded, lock-striped table that remembers the enforcement outcome of a
// flow so that every subsequent packet of the same connection skips tag
// decoding, stack decoding, and policy evaluation entirely (the paper's
// §VI-D keep-alive argument — every packet of a connection carries the
// same contextual tag, so one evaluation answers for all of them).
//
// # Keying
//
// A flow is identified by Key: the full 5-tuple — IPv4 endpoints
// (src, dst), the transport ports the enforcer peeks out of the TCP/UDP
// header (zero for legacy plain payloads and non-first fragments), the
// protocol — and the raw tag bytes themselves — which begin with the
// app's truncated hash — pinned verbatim in the key, with a 64-bit digest
// of them for indexing.
// Internally each shard maps a 64-bit mix of the whole Key to its entry,
// and every probe verifies the full stored Key — including the exact tag
// bytes — so a digest or hash collision between different flows can only
// cause an extra miss or an overwrite (cache churn), never a wrong
// verdict. This is deliberate: tag bytes are attacker-influenced (the
// paper's tag-replay discussion, §VII), and a cache keyed on a
// non-cryptographic digest alone would let a crafted collision borrow a
// benign flow's cached verdict.
//
// # Invalidation
//
// Entries never serve stale policy: every entry records the generation
// number the caller observed when it evaluated the flow, and Lookup
// requires an exact generation match. The enforcer derives its generation
// from atomic counters bumped by policy.Engine.SetRules and
// analyzer.Database mutations, so a central reconfiguration or a newly
// provisioned app invalidates every cached verdict at the cost of one
// integer comparison per lookup — no callbacks, no sweeps, no locks.
// Stale entries are deleted on discovery and re-evaluated as misses.
//
// # Eviction
//
// The table is bounded: Capacity is split evenly across Shards, and an
// insert into a full shard reclaims expired entries first, then evicts
// the least recently used of a small sample (approximate LRU, so insert
// stays O(1) under sustained flow churn). When a Clock is configured,
// entries also carry a TTL in virtual time, so dead flows age out even
// without capacity pressure.
//
// All counters are atomic; Lookup takes only one shard RLock, so parallel
// readers on different flows share nothing but their shard stripe.
package flowtable

import (
	"encoding/binary"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"
)

// Clock supplies virtual time for TTL expiry and LRU recency.
// netsim.Clock satisfies it.
type Clock interface {
	Now() time.Duration
}

// MaxTagBytes is the largest tag payload a Key can pin: the 40-byte
// IP_OPTIONS budget minus the option's type and length octets. Tags that
// somehow exceed it are uncacheable (see SetTag).
const MaxTagBytes = 38

// Key identifies one flow at the enforcement point.
type Key struct {
	// Src and Dst are the packet's IPv4 endpoints.
	Src, Dst netip.Addr
	// SrcPort and DstPort are the transport ports peeked from the packet's
	// TCP/UDP header; zero when the payload carries no transport header
	// (legacy plain payloads, non-first fragments).
	SrcPort, DstPort uint16
	// Proto is the IPv4 protocol number.
	Proto byte
	// TagLen and Tag pin the exact raw tag bytes (app truncated hash,
	// index sequence, flags): entry verification
	// compares them verbatim, so no digest collision — accidental or
	// crafted — can ever serve another flow's verdict.
	TagLen uint8
	Tag    [MaxTagBytes]byte
	// Digest is a 64-bit digest of the raw tag bytes (see Digest); it
	// only steers shard selection and map indexing.
	Digest uint64
}

// SetTag pins the raw tag bytes and their digest into the key. It
// reports false when the payload exceeds MaxTagBytes (no legal IPv4
// option can carry that; such a packet must bypass the cache). The
// unused tail of Tag is zeroed, so a Key reused across packets compares
// equal to a freshly built key for the same flow.
func (k *Key) SetTag(b []byte) bool {
	if len(b) > MaxTagBytes {
		return false
	}
	k.TagLen = uint8(len(b))
	n := copy(k.Tag[:], b)
	clear(k.Tag[n:])
	k.Digest = Digest(b)
	return true
}

// fnvPrime64 and fnvOffset64 are the FNV-64 parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Digest computes a 64-bit digest of a raw tag payload, folding eight
// bytes per FNV round (tags are ≤38 bytes, so this is a handful of
// multiplies on the per-packet path). The tag bytes fully determine the
// decoded (app, index sequence, flags) triple, so hashing them keys the
// verdict without decoding anything.
func Digest(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for len(b) >= 8 {
		h ^= binary.LittleEndian.Uint64(b)
		h *= fnvPrime64
		b = b[8:]
	}
	if len(b) > 0 {
		var tail uint64
		for i := len(b) - 1; i >= 0; i-- {
			tail = tail<<8 | uint64(b[i])
		}
		// Fold the tail length in so "0x00" and "0x00 0x00" differ.
		h ^= tail | uint64(len(b))<<56
		h *= fnvPrime64
	}
	return h
}

// hash mixes the whole key into the 64-bit value that selects the shard
// and indexes the shard map. Digest carries most of the entropy; the
// endpoints and ports separate flows with identical tags.
func (k Key) hash() uint64 {
	h := k.Digest
	if k.Src.Is4() {
		a := k.Src.As4()
		h ^= uint64(binary.BigEndian.Uint32(a[:]))
	}
	if k.Dst.Is4() {
		a := k.Dst.As4()
		h ^= uint64(binary.BigEndian.Uint32(a[:])) << 32
	}
	h ^= uint64(k.SrcPort)<<16 | uint64(k.DstPort) | uint64(k.Proto)<<32
	// Final avalanche (splitmix64 tail) so low bits depend on all input.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	return h
}

// Config sizes a table.
type Config struct {
	// Capacity bounds the live flows across all shards (default 65536).
	Capacity int
	// Shards is the number of lock stripes, rounded up to a power of two
	// (default 64).
	Shards int
	// TTL expires entries this much virtual time after insertion; zero (or
	// a nil Clock) disables expiry.
	TTL time.Duration
	// Clock supplies virtual time for TTL and recency; nil falls back to a
	// monotonic tick counter (recency only, no TTL).
	Clock Clock
}

// missRingSize sizes each shard's negative cache, which guards admission
// under capacity pressure. A unique-flow flood — a SYN flood of crafted
// tags is the worst case — would otherwise turn every insert into an
// eviction-sample-plus-insert on a full shard (~2.6 µs per miss measured
// under 100% eviction pressure) and churn established flows out of the
// cache. With the guard, an insert into a full shard must present a key
// whose digest was recently rejected once: the first attempt only notes
// the digest in the ring and returns, so one-packet flood flows never
// allocate an entry, never evict a live flow, and pay a ring scan instead
// of the eviction path. Real flows pay the full pipeline for one extra
// packet and are admitted on their second miss. Shards below capacity
// admit immediately.
const missRingSize = 64

// Stats snapshots the table's counters.
type Stats struct {
	// Hits are lookups served from cache.
	Hits uint64
	// Misses are lookups that found nothing usable (includes stale and
	// expired entries).
	Misses uint64
	// Inserts counts entries written.
	Inserts uint64
	// Evictions counts entries removed under capacity pressure.
	Evictions uint64
	// StaleDrops counts entries discarded because the generation moved
	// (policy or database update invalidated them).
	StaleDrops uint64
	// ExpiredDrops counts entries discarded past their TTL.
	ExpiredDrops uint64
	// AdmissionDrops counts inserts turned away by the negative-cache
	// admission guard (first-seen keys hitting a full shard — the
	// unique-flow-flood signature).
	AdmissionDrops uint64
	// Live is the number of entries currently in the table.
	Live int
}

// entry is one cached flow. lastUsed is atomic so hits under the shard
// RLock can refresh recency without upgrading to a write lock; h and dead
// are only touched under the shard's write lock (dead marks entries
// removed from the map so ring sampling skips them without a probe).
type entry[V any] struct {
	key      Key
	val      V
	h        uint64
	gen      uint64
	born     time.Duration
	dead     bool
	lastUsed atomic.Int64
}

type shard[V any] struct {
	mu sync.RWMutex
	// entries is keyed by the full 64-bit Key.hash(); entry.key resolves
	// collisions (verified on every probe).
	entries map[uint64]*entry[V]
	// ring holds the most recently inserted entries (bounded by the shard
	// capacity): the eviction candidate pool. Sampling it instead of
	// ranging over the map keeps insert-under-pressure O(1) regardless of
	// shard size, and holding entry pointers (not hashes) makes each
	// sample a pointer read instead of a map probe.
	ring    []*entry[V]
	ringPos int
	// rng is the shard's xorshift state for picking the sample window.
	rng uint64
	// missRing is the shard's negative cache: hashes of keys recently
	// refused admission under capacity pressure (0 = empty slot). A key
	// found here on its next insert attempt is admitted — the doorkeeper
	// pattern: one-packet flood flows never get past the ring.
	missRing []uint64
	missPos  int
	// pad keeps neighbouring shard locks off one cache line.
	_ [40]byte
}

// sawRecentMiss reports whether h was refused admission recently, and
// consumes the slot so each noted miss admits at most one insert. Caller
// holds the shard's write lock.
func (s *shard[V]) sawRecentMiss(h uint64) bool {
	for i, v := range s.missRing {
		if v == h {
			s.missRing[i] = 0
			return true
		}
	}
	return false
}

// noteMiss records a refused key's hash in the ring, overwriting the
// oldest slot. Caller holds the shard's write lock.
func (s *shard[V]) noteMiss(h uint64) {
	s.missRing[s.missPos] = h
	s.missPos++
	if s.missPos == len(s.missRing) {
		s.missPos = 0
	}
}

// evictSamples bounds the eviction scan: reclaim expired entries among a
// sample of live candidates, else evict the least recently used of the
// sample (approximate LRU).
const evictSamples = 8

// Table is a sharded per-flow cache of V (the enforcer caches its Result).
// The zero value is not usable; call New.
type Table[V any] struct {
	shards      []shard[V]
	mask        uint64
	ttl         time.Duration
	clock       Clock
	perShardCap int

	tick atomic.Int64 // recency source when clock is nil

	hits           atomic.Uint64
	misses         atomic.Uint64
	inserts        atomic.Uint64
	evictions      atomic.Uint64
	stale          atomic.Uint64
	expired        atomic.Uint64
	admissionDrops atomic.Uint64
}

// New builds a table.
func New[V any](cfg Config) *Table[V] {
	capacity := cfg.Capacity
	if capacity <= 0 {
		capacity = 65536
	}
	n := cfg.Shards
	if n <= 0 {
		n = 64
	}
	// Round up to a power of two for mask indexing.
	p := 1
	for p < n {
		p <<= 1
	}
	per := capacity / p
	if per < 1 {
		per = 1
	}
	t := &Table[V]{
		shards:      make([]shard[V], p),
		mask:        uint64(p - 1),
		ttl:         cfg.TTL,
		clock:       cfg.Clock,
		perShardCap: per,
	}
	if t.clock == nil {
		t.ttl = 0 // TTL needs a time source
	}
	for i := range t.shards {
		t.shards[i].entries = make(map[uint64]*entry[V], per)
		t.shards[i].rng = uint64(i)*0x9e3779b97f4a7c15 + 1
		t.shards[i].missRing = make([]uint64, missRingSize)
	}
	return t
}

// now returns the insert-side recency/TTL timestamp: virtual time when a
// clock is configured, otherwise the next monotonic tick.
func (t *Table[V]) now() time.Duration {
	if t.clock != nil {
		return t.clock.Now()
	}
	return time.Duration(t.tick.Add(1))
}

// readNow is the lookup-side timestamp: it never advances the tick, so
// the hot hit path performs no shared read-modify-write (ticks move on
// inserts; +1 orders hits after the insert that produced the entry).
func (t *Table[V]) readNow() time.Duration {
	if t.clock != nil {
		return t.clock.Now()
	}
	return time.Duration(t.tick.Load() + 1)
}

// Lookup returns the cached value for k if it exists, carries the caller's
// current generation, and has not expired. A stale or expired entry is
// deleted and reported as a miss, so the caller re-evaluates and
// re-inserts under the current generation.
func (t *Table[V]) Lookup(k Key, gen uint64) (V, bool) {
	h := k.hash()
	s := &t.shards[h&t.mask]
	now := t.readNow()
	s.mu.RLock()
	e, ok := s.entries[h]
	if ok && e.key == k && e.gen == gen && (t.ttl <= 0 || now-e.born <= t.ttl) {
		// Refresh recency, but skip the store when the timestamp has not
		// moved: repeated hits on a hot flow then leave the entry's cache
		// line clean for the other cores.
		if e.lastUsed.Load() != int64(now) {
			e.lastUsed.Store(int64(now))
		}
		val := e.val
		s.mu.RUnlock()
		t.hits.Add(1)
		return val, true
	}
	s.mu.RUnlock()
	if ok && e.key == k {
		// Dead entry: remove it so the shard doesn't pin invalidated flows.
		s.mu.Lock()
		if cur, still := s.entries[h]; still && cur == e {
			delete(s.entries, h)
			e.dead = true
		}
		s.mu.Unlock()
		if e.gen != gen {
			t.stale.Add(1)
		} else {
			t.expired.Add(1)
		}
	}
	t.misses.Add(1)
	var zero V
	return zero, false
}

// Insert caches v for k under the given generation. When the stripe is
// full, expired entries are reclaimed first and otherwise the least
// recently used of a small sample is evicted.
func (t *Table[V]) Insert(k Key, gen uint64, v V) {
	h := k.hash()
	s := &t.shards[h&t.mask]
	now := t.now()
	s.mu.Lock()
	if old, exists := s.entries[h]; exists {
		// Same-hash overwrite (re-insert after invalidation, or a hash
		// collision): the old entry leaves the map, so mark it for the
		// ring sampler; the new entry takes a fresh ring slot.
		old.dead = true
	} else if len(s.entries) >= t.perShardCap {
		// Negative-cache admission guard: a full shard admits only keys
		// already turned away once. First-seen keys — the unique-flow
		// flood — cost a ring scan, not an eviction, and bail out before
		// the entry is even allocated, so the flood path is allocation
		// free.
		if !s.sawRecentMiss(h) {
			s.noteMiss(h)
			s.mu.Unlock()
			t.admissionDrops.Add(1)
			return
		}
		t.evictLocked(s, now)
	}
	e := &entry[V]{key: k, val: v, h: h, gen: gen, born: now}
	e.lastUsed.Store(int64(now))
	if len(s.ring) < t.perShardCap {
		s.ring = append(s.ring, e)
	} else {
		s.ring[s.ringPos] = e
		s.ringPos++
		if s.ringPos == len(s.ring) {
			s.ringPos = 0
		}
	}
	s.entries[h] = e
	s.mu.Unlock()
	t.inserts.Add(1)
}

// evictLocked frees room in s: it walks the candidate ring from a random
// offset, reclaims every expired entry in the sample, and otherwise
// evicts the least recently used sampled entry. Dead ring slots (entries
// already removed) are skipped with a pointer read; if the whole ring is
// dead (pathological) an arbitrary map entry goes, so the shard never
// exceeds capacity. Caller holds s.mu.
func (t *Table[V]) evictLocked(s *shard[V], now time.Duration) {
	var (
		lru        *entry[V]
		lruUsed    int64
		freed      int
		candidates int
	)
	if n := len(s.ring); n > 0 {
		s.rng ^= s.rng << 13
		s.rng ^= s.rng >> 7
		s.rng ^= s.rng << 17
		start := int(s.rng % uint64(n))
		for i := 0; i < n && candidates < evictSamples; i++ {
			e := s.ring[(start+i)%n]
			if e == nil || e.dead {
				continue
			}
			candidates++
			if t.ttl > 0 && now-e.born > t.ttl {
				delete(s.entries, e.h)
				e.dead = true
				freed++
				continue
			}
			if u := e.lastUsed.Load(); lru == nil || u < lruUsed {
				lru, lruUsed = e, u
			}
		}
	}
	if freed > 0 {
		t.expired.Add(uint64(freed))
		return
	}
	if lru != nil {
		delete(s.entries, lru.h)
		lru.dead = true
		t.evictions.Add(1)
		return
	}
	for h, e := range s.entries {
		delete(s.entries, h)
		e.dead = true
		t.evictions.Add(1)
		break
	}
}

// Delete removes one flow (e.g. on connection teardown) and reports
// whether it was present.
func (t *Table[V]) Delete(k Key) bool {
	h := k.hash()
	s := &t.shards[h&t.mask]
	s.mu.Lock()
	e, ok := s.entries[h]
	if ok && e.key == k {
		delete(s.entries, h)
		e.dead = true
	} else {
		ok = false
	}
	s.mu.Unlock()
	return ok
}

// Sweep walks every shard and deletes entries past their TTL, returning
// how many it reclaimed. Expiry is otherwise lazy (discovered on lookup or
// under insert pressure), which lets a flow whose teardown packets were
// lost pin its entry indefinitely if no traffic ever probes it again; a
// periodic Sweep bounds that leak. A no-op without a TTL/Clock. Each shard
// is locked independently, so concurrent traffic stalls for at most one
// shard's walk.
func (t *Table[V]) Sweep() int {
	if t.ttl <= 0 {
		return 0
	}
	now := t.readNow()
	freed := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for h, e := range s.entries {
			if now-e.born > t.ttl {
				delete(s.entries, h)
				e.dead = true
				freed++
			}
		}
		s.mu.Unlock()
	}
	if freed > 0 {
		t.expired.Add(uint64(freed))
	}
	return freed
}

// Purge empties the table (entries are not counted as evictions).
func (t *Table[V]) Purge() {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for h, e := range s.entries {
			delete(s.entries, h)
			e.dead = true
		}
		s.ring = s.ring[:0]
		s.ringPos = 0
		s.mu.Unlock()
	}
}

// Len returns the number of live entries.
func (t *Table[V]) Len() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		n += len(s.entries)
		s.mu.RUnlock()
	}
	return n
}

// Stats snapshots the counters.
func (t *Table[V]) Stats() Stats {
	return Stats{
		Hits:           t.hits.Load(),
		Misses:         t.misses.Load(),
		Inserts:        t.inserts.Load(),
		Evictions:      t.evictions.Load(),
		StaleDrops:     t.stale.Load(),
		ExpiredDrops:   t.expired.Load(),
		AdmissionDrops: t.admissionDrops.Load(),
		Live:           t.Len(),
	}
}
