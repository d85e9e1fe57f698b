package flowtable

import (
	"testing"
)

// BenchmarkFlowLookupHit measures the hit path: one shard probe plus an
// atomic recency refresh. This is the whole per-packet cost of a cached
// flow at the gateway.
func BenchmarkFlowLookupHit(b *testing.B) {
	tb := New[uint64](Config{Capacity: 65536})
	k := key(1)
	tb.Insert(k, 1, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tb.Lookup(k, 1); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkFlowLookupHitParallel drives the same hot flow from every core:
// readers share only the shard's RWMutex in read mode.
func BenchmarkFlowLookupHitParallel(b *testing.B) {
	tb := New[uint64](Config{Capacity: 65536})
	k := key(1)
	tb.Insert(k, 1, 42)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, ok := tb.Lookup(k, 1); !ok {
				b.Error("miss")
				return
			}
		}
	})
}

// BenchmarkFlowInsert measures the miss path's cache-fill cost with LRU
// eviction pressure (table deliberately smaller than the flow population).
func BenchmarkFlowInsert(b *testing.B) {
	tb := New[uint64](Config{Capacity: 1024})
	keys := make([]Key, 4096)
	for i := range keys {
		keys[i] = key(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Insert(keys[i%len(keys)], 1, uint64(i))
	}
}

// BenchmarkFlowDigest measures keying a maximum-size tag payload.
func BenchmarkFlowDigest(b *testing.B) {
	buf := make([]byte, 38)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Digest(buf) == 0 {
			b.Fatal("zero digest")
		}
	}
}

// BenchmarkFlowMissFloodNegCache is the unique-flow-flood worst case:
// every key is new and every shard is full, so the admission guard turns
// each insert into a ring scan instead of an eviction, bounding the
// per-packet cost of a SYN flood of unique crafted flows.
func BenchmarkFlowMissFloodNegCache(b *testing.B) {
	tb := New[uint64](Config{Capacity: 1024})
	for i := 0; i < 1024; i++ {
		tb.Insert(key(i), 1, uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := floodKey(uint64(1_000_000 + i))
		if _, ok := tb.Lookup(k, 1); ok {
			b.Fatal("flood key hit")
		}
		tb.Insert(k, 1, uint64(i))
	}
}
