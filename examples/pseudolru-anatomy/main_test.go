package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestFigure5BuddyVictims runs the walkthrough and checks the last line
// of Figure 5: core 2's force vectors steer the victim walk into its own
// buddy block.
func TestFigure5BuddyVictims(t *testing.T) {
	var out bytes.Buffer
	run(&out)
	const want = "  core 2: ways {6,7}, up=000 down=110 -> victim way 6\n"
	if !strings.HasSuffix(out.String(), want) {
		t.Errorf("output does not end with %q:\n%s", want, out.String())
	}
}
