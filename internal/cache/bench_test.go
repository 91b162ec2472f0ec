package cache

import (
	"testing"

	"repro/internal/xrand"
	"repro/pkg/plru"
)

func benchAccess(b *testing.B, kind plru.Kind) {
	b.Helper()
	c := New(Config{
		Name: "L2", SizeBytes: 2 << 20, LineBytes: 128, Ways: 16,
		Policy: kind, Cores: 2, Seed: 1,
	})
	rng := xrand.New(7)
	addrs := make([]uint64, 1<<14)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(40000)) * 128
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(i&1, addrs[i&(1<<14-1)])
	}
}

func BenchmarkAccessLRU(b *testing.B)    { benchAccess(b, plru.LRU) }
func BenchmarkAccessNRU(b *testing.B)    { benchAccess(b, plru.NRU) }
func BenchmarkAccessBT(b *testing.B)     { benchAccess(b, plru.BT) }
func BenchmarkAccessRandom(b *testing.B) { benchAccess(b, plru.Random) }
