//go:build race

package cpacache

// raceEnabled — see race_off.go. Under the race detector every lookup
// takes the locked slow path (identical observable semantics), and with
// the lock-free path off no shard carries a touch ring: hits apply Touch
// directly under the shard mutex.
const raceEnabled = true
