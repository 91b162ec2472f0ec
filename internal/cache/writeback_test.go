package cache

import (
	"testing"

	"repro/pkg/plru"
)

func TestWriteMarksDirty(t *testing.T) {
	c := New(smallCfg(plru.LRU, 1))
	c.AccessRW(0, 0, true) // write-allocate, dirty
	// Fill the set; evicting the dirty line must report a writeback.
	for i := 1; i < 4; i++ {
		c.Access(0, uint64(i)*256)
	}
	r := c.Access(0, 4*256) // evicts LRU = the dirty line
	if !r.Evicted || !r.Writeback {
		t.Fatalf("dirty eviction not reported: %+v", r)
	}
	if c.Stats().TotalWritebacks() != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Stats().TotalWritebacks())
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	c := New(smallCfg(plru.LRU, 1))
	for i := 0; i < 5; i++ {
		c.Access(0, uint64(i)*256) // reads only
	}
	if c.Stats().TotalWritebacks() != 0 {
		t.Fatal("clean evictions produced writebacks")
	}
}

func TestWriteHitDirtiesExistingLine(t *testing.T) {
	c := New(smallCfg(plru.LRU, 1))
	c.Access(0, 0)         // clean fill
	c.AccessRW(0, 0, true) // write hit -> dirty
	for i := 1; i < 5; i++ {
		c.Access(0, uint64(i)*256)
	}
	if c.Stats().TotalWritebacks() != 1 {
		t.Fatalf("write-hit line eviction: writebacks = %d, want 1", c.Stats().TotalWritebacks())
	}
}

func TestEvictedAddrRoundTrips(t *testing.T) {
	c := New(smallCfg(plru.LRU, 1))
	const victim = uint64(0x1500) // line 0x54, set (0x54 % 4) = 0
	c.AccessRW(0, victim, true)
	set, _ := c.Index(victim)
	// Fill the same set until the victim is evicted.
	var r Result
	for i := 0; i < 8; i++ {
		addr := uint64(i*4+set) * 64
		if addr>>6 == victim>>6 {
			continue
		}
		r = c.Access(0, addr)
		if r.Evicted && r.Writeback {
			break
		}
	}
	if !r.Writeback {
		t.Fatal("victim never evicted")
	}
	if r.EvictedAddr>>6 != victim>>6 {
		t.Fatalf("EvictedAddr %#x does not match victim line %#x", r.EvictedAddr, victim)
	}
}

func TestWritebackAttributedToOwner(t *testing.T) {
	c := New(smallCfg(plru.LRU, 2))
	c.AccessRW(0, 0, true) // core 0's dirty line
	for i := 1; i < 5; i++ {
		c.Access(1, uint64(i)*256) // core 1 evicts it
	}
	if c.Stats().Writebacks[0] != 1 || c.Stats().Writebacks[1] != 0 {
		t.Fatalf("writeback attribution: %v", c.Stats().Writebacks)
	}
}
