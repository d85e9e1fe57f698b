package flowtable

import (
	"encoding/binary"
	"net/netip"
	"testing"
)

func floodKey(i uint64) Key {
	var tag [16]byte
	binary.LittleEndian.PutUint64(tag[:8], i)
	var k Key
	k.Src = netip.MustParseAddr("10.66.0.2")
	k.Dst = netip.MustParseAddr("203.0.113.9")
	k.SrcPort = uint16(40000 + i%20000)
	k.DstPort = 443
	k.Proto = 6
	k.SetTag(tag[:])
	return k
}

// TestAdmissionGuardBlocksUniqueFlowFlood: with the table full, a stream
// of never-repeated keys (the SYN-flood shape) must be turned away at the
// ring instead of evicting live flows.
func TestAdmissionGuardBlocksUniqueFlowFlood(t *testing.T) {
	tab := New[int](Config{Capacity: 64, Shards: 1})
	for i := uint64(0); i < 64; i++ {
		tab.Insert(floodKey(i), 1, int(i))
	}
	if live := tab.Len(); live != 64 {
		t.Fatalf("live = %d, want 64", live)
	}

	// Flood: 1000 unique keys against the full shard. Each is seen once,
	// so none may displace an established flow.
	for i := uint64(1000); i < 2000; i++ {
		tab.Insert(floodKey(i), 1, int(i))
	}
	st := tab.Stats()
	if st.AdmissionDrops != 1000 {
		t.Fatalf("admission drops = %d, want 1000", st.AdmissionDrops)
	}
	if st.Evictions != 0 {
		t.Fatalf("flood evicted %d live flows", st.Evictions)
	}
	// Every established flow still serves hits.
	for i := uint64(0); i < 64; i++ {
		if v, ok := tab.Lookup(floodKey(i), 1); !ok || v != int(i) {
			t.Fatalf("established flow %d lost under flood (ok=%v v=%d)", i, ok, v)
		}
	}
}

// TestAdmissionGuardAdmitsSecondMiss: a real flow that keeps sending is
// admitted on its second insert attempt (doorkeeper semantics), paying
// one extra full-pipeline packet, never more.
func TestAdmissionGuardAdmitsSecondMiss(t *testing.T) {
	tab := New[int](Config{Capacity: 8, Shards: 1})
	for i := uint64(0); i < 8; i++ {
		tab.Insert(floodKey(i), 1, int(i))
	}
	newcomer := floodKey(77)
	tab.Insert(newcomer, 1, 77) // first attempt: noted, rejected
	if _, ok := tab.Lookup(newcomer, 1); ok {
		t.Fatal("first-attempt insert was admitted")
	}
	tab.Insert(newcomer, 1, 77) // second attempt: admitted, evicting LRU
	if v, ok := tab.Lookup(newcomer, 1); !ok || v != 77 {
		t.Fatal("second-attempt insert not admitted")
	}
	st := tab.Stats()
	if st.AdmissionDrops != 1 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 1 admission drop + 1 eviction", st)
	}
}

// TestAdmissionGuardIdleBelowCapacity: shards under capacity admit
// immediately — the guard only engages under pressure.
func TestAdmissionGuardIdleBelowCapacity(t *testing.T) {
	tab := New[int](Config{Capacity: 64, Shards: 1})
	for i := uint64(0); i < 32; i++ {
		tab.Insert(floodKey(i), 1, int(i))
		if _, ok := tab.Lookup(floodKey(i), 1); !ok {
			t.Fatalf("insert %d not admitted below capacity", i)
		}
	}
	if st := tab.Stats(); st.AdmissionDrops != 0 {
		t.Fatalf("admission drops below capacity: %+v", st)
	}
}

// TestAdmissionGuardReinsertAfterInvalidation: a generation bump must not
// lock live flows out. Lookup deletes the stale entry (shard drops below
// capacity), so the re-insert is admitted immediately.
func TestAdmissionGuardReinsertAfterInvalidation(t *testing.T) {
	tab := New[int](Config{Capacity: 8, Shards: 1})
	for i := uint64(0); i < 8; i++ {
		tab.Insert(floodKey(i), 1, int(i))
	}
	// Generation moves (policy reload): the hot flow misses, is deleted,
	// and re-inserts under the new generation without tripping the guard.
	hot := floodKey(3)
	if _, ok := tab.Lookup(hot, 2); ok {
		t.Fatal("stale generation served")
	}
	tab.Insert(hot, 2, 3)
	if v, ok := tab.Lookup(hot, 2); !ok || v != 3 {
		t.Fatal("re-insert after invalidation rejected")
	}
	if st := tab.Stats(); st.AdmissionDrops != 0 {
		t.Fatalf("invalidation path tripped the guard: %+v", st)
	}
}
