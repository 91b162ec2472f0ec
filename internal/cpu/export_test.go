package cpu

// OnNewTape passes every tape NewTape builds from now on to fn; nil stops
// it. Set it only while no tape is being built.
func OnNewTape(fn func(*Tape)) { testHookNewTape = fn }

// Chunks reports how many chunks the tape has filled, and how many of
// them a reader filled itself rather than a recorder goroutine.
func (t *Tape) Chunks() (all, byReaders uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq, t.inline
}
