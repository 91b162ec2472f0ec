package profiling

import (
	"testing"

	"repro/internal/xrand"
	"repro/pkg/plru"
)

func benchObserve(b *testing.B, kind plru.Kind, sample int) {
	b.Helper()
	cfg := Config{
		L2Sets: 1024, Ways: 16, LineBytes: 128, SampleRate: sample,
		Kind: kind, NRUScale: 0.75,
	}
	m := NewMonitor(cfg)
	rng := xrand.New(3)
	addrs := make([]uint64, 1<<14)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(60000)) * 128
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Observe(addrs[i&(1<<14-1)])
	}
}

func BenchmarkObserveLRUFull(b *testing.B)    { benchObserve(b, plru.LRU, 1) }
func BenchmarkObserveLRUSampled(b *testing.B) { benchObserve(b, plru.LRU, 32) }
func BenchmarkObserveNRUSampled(b *testing.B) { benchObserve(b, plru.NRU, 32) }
func BenchmarkObserveBTSampled(b *testing.B)  { benchObserve(b, plru.BT, 32) }

func BenchmarkSDHMissCurve(b *testing.B) {
	s := NewSDH(16)
	for d := 1; d <= 16; d++ {
		for i := 0; i < d*3; i++ {
			s.RecordHit(d)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if c := s.MissCurve(); len(c) != 17 {
			b.Fatal("bad curve")
		}
	}
}
