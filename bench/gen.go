package main

import (
	"math/rand"
	"strconv"
)

// Request kinds. A stream is a sequence of GETs and SETs; nothing else
// is measured.
const (
	opGet uint8 = iota
	opSet
)

// op is one generated request: a GET or SET of key index key, the SET
// optionally carrying a PX ttl.
type op struct {
	kind  uint8
	key   uint32
	ttlMs uint32
}

// streamSpec describes the request stream of one closed-loop client: a
// connection of a wire workload or a goroutine of lib_mixed.
type streamSpec struct {
	name       string  // tenant name (daemon -tenant flag and INFO line)
	auth       string  // AUTH password; "" on an open daemon
	tenant     int     // cache tenant id
	prefix     string  // key = prefix + 10 zero-padded digits
	keyBase    int     // first key index of this stream's key space
	keys       int     // size of the key space
	zipfS      float64 // zipf skew (> 1); 0 draws keys uniformly
	valueSize  int     // bytes per value
	setShare   float64 // share of drawn requests that are blind SETs
	cacheAside bool    // a GET miss queues a SET of that key
	ttlMs      uint32  // PX on SETs; 0 = none
	ttlEvery   int     // with ttlMs: only every n-th SET carries it (0 = all)
	scored     bool    // this stream's GETs count toward hit_rate
}

// gen produces one stream. All randomness comes from the seed; the only
// other input is miss feedback, so a stream is a pure function of (spec,
// seed, the system's hit/miss answers).
type gen struct {
	spec    streamSpec
	rng     *rand.Rand
	zipf    *rand.Zipf
	pending []uint32 // cache-aside SETs owed to earlier GET misses
	head    int      // pending[head:] is still owed
	nSets   int
}

func newGen(spec streamSpec, seed int64) *gen {
	g := &gen{spec: spec, rng: rand.New(rand.NewSource(seed))}
	if spec.zipfS > 1 {
		g.zipf = rand.NewZipf(g.rng, spec.zipfS, 1, uint64(spec.keys-1))
	}
	return g
}

// next returns the stream's next request. SETs owed to earlier misses go
// first, so a miss seen in one batch is repaired at the head of the next.
func (g *gen) next() op {
	if g.head < len(g.pending) {
		k := g.pending[g.head]
		g.head++
		if g.head == len(g.pending) {
			g.pending, g.head = g.pending[:0], 0
		}
		return g.set(k)
	}
	k := g.draw()
	if g.rng.Float64() < g.spec.setShare {
		return g.set(k)
	}
	return op{kind: opGet, key: k}
}

// draw returns the next key index of the stream's distribution.
func (g *gen) draw() uint32 {
	if g.zipf != nil {
		return uint32(g.spec.keyBase) + uint32(g.zipf.Uint64())
	}
	return uint32(g.spec.keyBase + g.rng.Intn(g.spec.keys))
}

func (g *gen) set(k uint32) op {
	g.nSets++
	o := op{kind: opSet, key: k}
	if g.spec.ttlMs > 0 && (g.spec.ttlEvery == 0 || g.nSets%g.spec.ttlEvery == 0) {
		o.ttlMs = g.spec.ttlMs
	}
	return o
}

// miss reports that the GET of key k missed.
func (g *gen) miss(k uint32) {
	if g.spec.cacheAside {
		g.pending = append(g.pending, k)
	}
}

// valueVariants is the number of distinct values per value size. The
// value of key k is variant k % valueVariants, so a reply can be checked
// against the key it was asked for without holding a value per key.
const valueVariants = 1024

// valueTable returns the valueVariants deterministic values of one size.
func valueTable(size int) [][]byte {
	t := make([][]byte, valueVariants)
	for i := range t {
		v := make([]byte, size)
		x := uint64(i)*0x9E3779B97F4A7C15 + uint64(size)
		for j := range v {
			if j%8 == 0 { // splitmix64 step
				x += 0x9E3779B97F4A7C15
				z := x
				z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
				z = (z ^ (z >> 27)) * 0x94D049BB133111EB
				x = z ^ (z >> 31)
			}
			v[j] = byte(x >> (8 * (j % 8)))
		}
		t[i] = v
	}
	return t
}

func valueOf(table [][]byte, key uint32) []byte { return table[key%valueVariants] }

// appendKey appends prefix + the 10-digit zero-padded key index.
func appendKey(dst []byte, prefix string, key uint32) []byte {
	dst = append(dst, prefix...)
	var d [10]byte
	for i := 9; i >= 0; i-- {
		d[i] = byte('0' + key%10)
		key /= 10
	}
	return append(dst, d[:]...)
}

func keyString(prefix string, key uint32) string {
	return string(appendKey(make([]byte, 0, len(prefix)+10), prefix, key))
}

func appendBulk(dst, b []byte) []byte {
	dst = append(dst, '$')
	dst = strconv.AppendInt(dst, int64(len(b)), 10)
	dst = append(dst, '\r', '\n')
	dst = append(dst, b...)
	return append(dst, '\r', '\n')
}

// appendCommand appends the RESP multibulk frame of an arbitrary command,
// for the few sent outside the measured streams (AUTH, PING, INFO).
func appendCommand(dst []byte, args ...string) []byte {
	dst = append(dst, '*')
	dst = strconv.AppendInt(dst, int64(len(args)), 10)
	dst = append(dst, '\r', '\n')
	for _, a := range args {
		dst = appendBulk(dst, []byte(a))
	}
	return dst
}

// appendRequest appends the RESP multibulk frame of o.
func appendRequest(dst []byte, prefix string, o op, table [][]byte) []byte {
	keyLen := int64(len(prefix) + 10)
	switch {
	case o.kind == opGet:
		dst = append(dst, "*2\r\n$3\r\nGET\r\n$"...)
	case o.ttlMs > 0:
		dst = append(dst, "*5\r\n$3\r\nSET\r\n$"...)
	default:
		dst = append(dst, "*3\r\n$3\r\nSET\r\n$"...)
	}
	dst = strconv.AppendInt(dst, keyLen, 10)
	dst = append(dst, '\r', '\n')
	dst = appendKey(dst, prefix, o.key)
	dst = append(dst, '\r', '\n')
	if o.kind == opGet {
		return dst
	}
	dst = appendBulk(dst, valueOf(table, o.key))
	if o.ttlMs > 0 {
		dst = append(dst, "$2\r\nPX\r\n"...)
		var num [10]byte
		dst = appendBulk(dst, strconv.AppendUint(num[:0], uint64(o.ttlMs), 10))
	}
	return dst
}
