package cpacache

// Hardware-style tag match for the set probe. Each set keeps one byte of
// tag per way, packed eight ways to a uint64, so a lookup resolves against
// all ways of a word with a handful of branch-free SWAR operations — the
// software analogue of a hardware cache's parallel tag comparators. Only
// ways whose tag byte matches are then confirmed with a full key
// comparison, so a probe of an 8-way set typically costs one XOR-and-mask
// plus a single key compare instead of eight key compares.
//
// Tag encoding: byte 0x00 means the way is empty; an occupied way stores
// 0x80 | (7 hash bits). Folding the valid bit into the tag byte removes
// the separate owner>=0 check from the probe, and makes "find an empty
// way" a zero-byte scan over the same word. The 7 tag bits come from hash
// bits 24..30 (bit 31 is overwritten by the valid bit), which neither
// shard selection (low bits) nor set selection (bits 32 and up) consumes,
// so tag collisions are independent of set placement.
//
// Layout: each set owns tagWordsFor(ways) consecutive words in the
// shard's tags array, holding the packed per-way tag bytes.

const (
	tagEmpty   = 0x00
	tagLoBytes = 0x0101010101010101
	tagHiBytes = 0x8080808080808080
)

// tagOf derives the occupied-tag byte from a key's hash.
func tagOf(h uint64) uint8 { return uint8(h>>24) | 0x80 }

// tagWordsFor returns the number of packed tag words each set needs.
func tagWordsFor(ways int) int { return (ways + 7) / 8 }

// zeroBytes returns a word with the high bit of byte i set iff byte i of w
// is zero. The 7-bit add cannot carry between bytes, so — unlike the
// classic (w-lo)&^w&hi trick — the result is exact: no false positives
// above a zero byte.
func zeroBytes(w uint64) uint64 {
	t := (w & ^uint64(tagHiBytes)) + ^uint64(tagHiBytes)
	return ^(t | w) & tagHiBytes
}

// matchTag returns a word with the high bit of byte i set iff byte i of
// tags equals tag. Exact; empty bytes (0x00) never match an occupied tag
// because occupied tags always carry the 0x80 valid bit.
func matchTag(tags uint64, tag uint8) uint64 {
	return zeroBytes(tags ^ (uint64(tag) * tagLoBytes))
}

// byteMarksToBits compresses high-bit byte marks (as produced by zeroBytes
// or matchTag) into the low 8 bits: bit i set iff byte i was marked. The
// multiply gathers bit 8i into bit 56+i with no cross-term collisions.
func byteMarksToBits(marks uint64) uint64 {
	return ((marks >> 7) * 0x0102040810204080) >> 56
}

// markWay converts a single high-bit byte mark position (from
// bits.TrailingZeros64 on a marks word) into its way index within the word.
func markWay(tz int) int { return tz >> 3 }
