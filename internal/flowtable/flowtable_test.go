package flowtable

import (
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// tickClock is a hand-cranked virtual clock for TTL tests.
type tickClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *tickClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *tickClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

func key(i int) Key {
	return Key{
		Src:    netip.MustParseAddr("10.66.0.2"),
		Dst:    netip.AddrFrom4([4]byte{93, 184, byte(i >> 8), byte(i)}),
		Proto:  6,
		Digest: Digest([]byte(fmt.Sprintf("tag-%d", i))),
	}
}

func TestLookupInsertRoundTrip(t *testing.T) {
	tb := New[string](Config{Capacity: 128, Shards: 4})
	k := key(1)
	if _, ok := tb.Lookup(k, 1); ok {
		t.Fatal("empty table hit")
	}
	tb.Insert(k, 1, "allow")
	v, ok := tb.Lookup(k, 1)
	if !ok || v != "allow" {
		t.Fatalf("lookup = %q, %v", v, ok)
	}
	st := tb.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Inserts != 1 || st.Live != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGenerationMismatchInvalidates(t *testing.T) {
	tb := New[string](Config{Capacity: 128})
	k := key(7)
	tb.Insert(k, 1, "allow")
	// A rule or database update bumped the generation: the entry must not
	// be served, and must be removed.
	if _, ok := tb.Lookup(k, 2); ok {
		t.Fatal("stale generation served")
	}
	if tb.Len() != 0 {
		t.Fatalf("stale entry retained, live=%d", tb.Len())
	}
	st := tb.Stats()
	if st.StaleDrops != 1 {
		t.Fatalf("stale drops = %d, want 1", st.StaleDrops)
	}
	// Re-inserting under the new generation works.
	tb.Insert(k, 2, "drop")
	if v, ok := tb.Lookup(k, 2); !ok || v != "drop" {
		t.Fatalf("re-inserted lookup = %q, %v", v, ok)
	}
}

func TestTTLExpiry(t *testing.T) {
	clk := &tickClock{}
	tb := New[int](Config{Capacity: 128, TTL: 10 * time.Millisecond, Clock: clk})
	k := key(3)
	tb.Insert(k, 1, 42)
	clk.advance(5 * time.Millisecond)
	if _, ok := tb.Lookup(k, 1); !ok {
		t.Fatal("entry expired before TTL")
	}
	clk.advance(6 * time.Millisecond)
	if _, ok := tb.Lookup(k, 1); ok {
		t.Fatal("entry served past TTL")
	}
	if st := tb.Stats(); st.ExpiredDrops != 1 {
		t.Fatalf("expired drops = %d, want 1", st.ExpiredDrops)
	}
}

func TestTTLWithoutClockDisabled(t *testing.T) {
	tb := New[int](Config{Capacity: 8, TTL: time.Nanosecond})
	k := key(4)
	tb.Insert(k, 1, 1)
	if _, ok := tb.Lookup(k, 1); !ok {
		t.Fatal("TTL applied without a clock")
	}
}

func TestLRUEvictionUnderCapacity(t *testing.T) {
	// One shard, capacity 4: inserting a 5th flow evicts the LRU.
	tb := New[int](Config{Capacity: 4, Shards: 1})
	for i := 0; i < 4; i++ {
		tb.Insert(key(i), 1, i)
	}
	// Touch 0..2 so key(3) is least recently used.
	for i := 0; i < 3; i++ {
		if _, ok := tb.Lookup(key(i), 1); !ok {
			t.Fatalf("flow %d missing", i)
		}
	}
	// The shard is full: the admission guard turns the newcomer away on
	// its first attempt and admits it on its second.
	tb.Insert(key(99), 1, 99)
	tb.Insert(key(99), 1, 99)
	if tb.Len() != 4 {
		t.Fatalf("live = %d, want 4", tb.Len())
	}
	if _, ok := tb.Lookup(key(3), 1); ok {
		t.Fatal("LRU entry survived eviction")
	}
	for _, i := range []int{0, 1, 2, 99} {
		if _, ok := tb.Lookup(key(i), 1); !ok {
			t.Fatalf("recently used flow %d evicted", i)
		}
	}
	if st := tb.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

func TestEvictionPrefersExpired(t *testing.T) {
	clk := &tickClock{}
	tb := New[int](Config{Capacity: 4, Shards: 1, TTL: 10 * time.Millisecond, Clock: clk})
	tb.Insert(key(0), 1, 0) // will be expired
	clk.advance(11 * time.Millisecond)
	for i := 1; i < 4; i++ {
		tb.Insert(key(i), 1, i)
	}
	// Full shard: the second attempt passes the admission guard.
	tb.Insert(key(5), 1, 5)
	tb.Insert(key(5), 1, 5)
	// key(0) expired and must be the one reclaimed; the fresh flows stay.
	for i := 1; i < 4; i++ {
		if _, ok := tb.Lookup(key(i), 1); !ok {
			t.Fatalf("fresh flow %d reclaimed instead of the expired one", i)
		}
	}
	if st := tb.Stats(); st.Evictions != 0 || st.ExpiredDrops == 0 {
		t.Fatalf("stats = %+v, want expired reclaim and no LRU eviction", st)
	}
}

func TestDeleteAndPurge(t *testing.T) {
	tb := New[int](Config{Capacity: 128})
	tb.Insert(key(1), 1, 1)
	tb.Insert(key(2), 1, 2)
	if !tb.Delete(key(1)) {
		t.Fatal("delete missed")
	}
	if tb.Delete(key(1)) {
		t.Fatal("double delete reported present")
	}
	tb.Purge()
	if tb.Len() != 0 {
		t.Fatalf("live after purge = %d", tb.Len())
	}
}

func TestDigestDistinguishesTagBytes(t *testing.T) {
	a := Digest([]byte{1, 0, 2})
	b := Digest([]byte{1, 0, 3})
	c := Digest([]byte{0, 1, 2})
	if a == b || a == c || b == c {
		t.Fatalf("digest collisions: %x %x %x", a, b, c)
	}
	if Digest(nil) != Digest([]byte{}) {
		t.Fatal("nil and empty digests differ")
	}
}

// TestDigestCollisionCannotBorrowVerdict: two keys engineered to share
// Digest (and thus shard and map slot) must never serve each other's
// value — the pinned tag bytes disambiguate. A crafted FNV collision is
// exactly the tag-forgery attack the exact-match keying defends against.
func TestDigestCollisionCannotBorrowVerdict(t *testing.T) {
	base := key(1)
	var colliding Key
	colliding = base // same endpoints, same digest...
	colliding.Tag[0] = 0xff
	colliding.TagLen = 1 // ...different actual tag bytes

	tb := New[string](Config{Capacity: 128})
	tb.Insert(base, 1, "allow")
	if v, ok := tb.Lookup(colliding, 1); ok {
		t.Fatalf("colliding key served %q", v)
	}
	// The forged flow's own insert then serves only the forged flow.
	tb.Insert(colliding, 1, "drop")
	if v, ok := tb.Lookup(colliding, 1); !ok || v != "drop" {
		t.Fatalf("colliding key after insert = %q, %v", v, ok)
	}
}

// TestSetTag pins payloads up to MaxTagBytes and rejects oversized ones.
func TestSetTag(t *testing.T) {
	var k Key
	payload := make([]byte, MaxTagBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	if !k.SetTag(payload) {
		t.Fatal("max-size tag rejected")
	}
	if k.TagLen != MaxTagBytes || k.Digest != Digest(payload) {
		t.Fatalf("key = len %d digest %x", k.TagLen, k.Digest)
	}
	if k.SetTag(make([]byte, MaxTagBytes+1)) {
		t.Fatal("oversized tag accepted")
	}
	// Reuse with a shorter payload must zero the stale tail, so the
	// reused key equals a freshly built one for the same flow.
	if !k.SetTag(payload[:4]) {
		t.Fatal("short tag rejected")
	}
	var fresh Key
	fresh.SetTag(payload[:4])
	if k != fresh {
		t.Fatalf("reused key %v != fresh key %v", k, fresh)
	}
}

// TestConcurrentReadersAndInvalidation hammers one hot flow and a churn of
// cold flows from many goroutines while the generation keeps moving, under
// -race: the striped locks and atomic recency must neither race nor serve
// a value under the wrong generation.
func TestConcurrentReadersAndInvalidation(t *testing.T) {
	tb := New[uint64](Config{Capacity: 256, Shards: 8})
	hot := key(1000)

	var gen atomic.Uint64
	gen.Store(1)

	const goroutines = 8
	const iters = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				cur := gen.Load()
				if v, ok := tb.Lookup(hot, cur); ok && v != cur {
					t.Errorf("generation %d served value %d", cur, v)
					return
				} else if !ok {
					tb.Insert(hot, cur, cur)
				}
				cold := key(g*iters + i)
				tb.Insert(cold, cur, cur)
				tb.Lookup(cold, cur)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			gen.Add(1)
		}
	}()
	wg.Wait()
	<-done
	st := tb.Stats()
	if st.Hits == 0 || st.Inserts == 0 {
		t.Fatalf("no traffic recorded: %+v", st)
	}
	if st.Live > 256 {
		t.Fatalf("capacity exceeded: live=%d", st.Live)
	}
}
