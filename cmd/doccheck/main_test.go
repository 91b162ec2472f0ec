package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree creates files (path -> content) under a fresh directory.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, body := range files {
		p := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// wantProblems runs every check on root and requires exactly the
// problems containing each of want, in any order.
func wantProblems(t *testing.T, root string, want ...string) {
	t.Helper()
	got, err := checkTree(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d problems %q, want %d matching %q", len(got), got, len(want), want)
	}
	for _, w := range want {
		found := false
		for _, g := range got {
			found = found || strings.Contains(g, w)
		}
		if !found {
			t.Errorf("no problem mentions %q in %q", w, got)
		}
	}
}

func TestGoCommentNamesMissingMarkdown(t *testing.T) {
	root := writeTree(t, map[string]string{
		"NOTES.md":           "# notes\n",
		"pkg/a/README.md":    "# a\n",
		"pkg/a/a.go":         "// Package a: see NOTES.md, README.md and GONE.md §5.\npackage a\n",
		"pkg/b/b.go":         "package b\n\n// F follows docs/MISSING.md.\nfunc F() {}\n",
		"pkg/b/strings.go":   "package b\n\nconst s = \"STRING.md is not a comment\"\n",
		"pkg/c/c_test.go":    "package c\n\n// See NOTES.md.\n",
		"pkg/c/c_fixed.go":   "package c\n\n// See pkg/a/README.md.\n",
		"pkg/c/nocomment.go": "package c\n",
	})
	wantProblems(t, root, "a.go:1:1: comment names missing GONE.md", "b.go:3:1: comment names missing docs/MISSING.md")
}

func TestBacktickedPathMustExist(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/cmp/cmp.go": "package cmp\n",
		"pkg/x/ring.go":       "package x\n",
		"bench/BASELINE.json": "{}\n",
		"README.md": "Uses `internal/cmp`, `internal/cmp.System.Run`, `./internal/cmp/cmp.go`,\n" +
			"`ring.go`, `go test ./...` and `internal/dram`.\n\n" +
			"Ledgers: `bench/BASELINE.json`, `BASELINE.json`, `BENCH_gone.json`, `-json` and `x.json`.\n\n" +
			"```\ninternal/fenced is not prose `internal/fenced`\n```\n",
		"docs/DESIGN.md":   "# design\n\nSee `policyref.go` and `docs/GONE.md`; `x.go y` is not a path.\n",
		"docs/sub/deep.md": "`internal/deep` is below docs/ and not checked.\n",
		"CHANGES.md":       "- deleted `internal/old`\n",
		"pkg/x/README.md":  "`internal/pkgreadme` is not the root README.\n",
	})
	wantProblems(t, root,
		`README.md:2: no such repository path "internal/dram"`,
		`README.md:4: no such repository path "BENCH_gone.json"`,
		`README.md:4: no such repository path "x.json"`,
		`DESIGN.md:3: no such repository path "policyref.go"`,
		`DESIGN.md:3: no such repository path "docs/GONE.md"`)
}

func TestBacktickedAPINameMustBeDeclared(t *testing.T) {
	root := writeTree(t, map[string]string{
		"pkg/cpapart/cpapart.go": "package cpapart\n\ntype MinMisses struct{}\n\n" +
			"func (MinMisses) Allocate() {}\n\nfunc WayCaps() {}\n\nconst Max = 1\n",
		"pkg/cpapart/cpapart_test.go": "package cpapart\n\nfunc Greedy() {}\n",
		"pkg/cpacache/cpacache.go": "package cpacache\n\ntype Cache[K comparable, V any] struct{}\n\n" +
			"func (c *Cache[K, V]) Rebalance() {}\n",
		"README.md": "`cpapart.MinMisses`, `cpapart.MinMisses.Allocate`, `cpapart.WayCaps(dst)`,\n" +
			"`cpapart.Max`, `cpacache.Cache` and `cpacache.Cache.Rebalance`,\n" +
			"`cpapart.Greedy`, `cpapart.MinMisses.Name` and `cpacache.New[K, V](cpacache.WithWays(8))`.\n\n" +
			"`pkg/cpacache/cpacache.go`, plain cpapart.Fixed and\n```\ncpapart.Fixed\n```\n",
		"docs/DESIGN.md": "Uses `plru.Policy` from a package that is not there.\n",
	})
	wantProblems(t, root,
		"README.md:3: pkg/cpapart declares no Greedy",
		"README.md:3: pkg/cpapart declares no MinMisses.Name",
		"README.md:3: pkg/cpacache declares no New",
		"README.md:3: pkg/cpacache declares no WithWays",
		"DESIGN.md:1: pkg/plru declares no Policy")
}

func TestBacktickedBareOptionMustBeDeclared(t *testing.T) {
	root := writeTree(t, map[string]string{
		"pkg/cpacache/options.go":      "package cpacache\n\nfunc WithWays(n int) {}\n\nfunc WithCost[K, V any]() {}\n",
		"pkg/cpacache/options_test.go": "package cpacache\n\nfunc WithTestOnly() {}\n",
		"README.md": "`WithWays`, `WithWays(8)`, `New(WithWays(8), WithCost[string, []byte](f))`,\n" +
			"`WithGone`, `x.WithElsewhere`, `NotWithThis` and `WithTestOnly()`.\n\n" +
			"Plain WithGone and\n```\nWithFenced()\n```\n",
		"docs/DESIGN.md": "Set `WithTouchBuffer(64)`.\n",
	})
	wantProblems(t, root,
		"README.md:2: pkg/cpacache declares no WithGone",
		"README.md:2: pkg/cpacache declares no WithTestOnly",
		"DESIGN.md:1: pkg/cpacache declares no WithTouchBuffer")
}

func TestFuzzSmokeListMatchesDeclaredTargets(t *testing.T) {
	root := writeTree(t, map[string]string{
		"Makefile": "# -fuzz='^FuzzComment$$' ./pkg/a/ is not a recipe line\n" +
			"fuzz-smoke:\n" +
			"\t$(GO) test -run=NONE -fuzz='^FuzzListed$$' -fuzztime=10s ./pkg/a/\n" +
			"\t$(GO) test -run=NONE -fuzz='^FuzzStale$$' -fuzztime=10s ./pkg/a/\n" +
			"\t$(GO) test -run=NONE -fuzz='^FuzzElsewhere$$' -fuzztime=10s ./pkg/b\n" +
			"\nother:\n\t$(GO) test -fuzz='^FuzzOtherTarget$$' ./pkg/a/\n",
		"pkg/a/a_test.go": "package a\n\nimport \"testing\"\n\n" +
			"func FuzzListed(f *testing.F) {}\n\n" +
			"func FuzzUnlisted(f *testing.F) {}\n\n" +
			"func FuzzHelper(t *testing.T) {}\n",
		"pkg/a/a.go":      "package a\n\nimport \"testing\"\n\nfunc FuzzNotATest(f *testing.F) {}\n",
		"pkg/c/c_test.go": "package c\n\nimport \"testing\"\n\nfunc FuzzElsewhere(f *testing.F) {}\n",
	})
	wantProblems(t, root,
		"Makefile:4: fuzz-smoke runs FuzzStale in ./pkg/a, which declares no such fuzz target",
		"Makefile:5: fuzz-smoke runs FuzzElsewhere in ./pkg/b, which declares no such fuzz target",
		"a_test.go:7:1: fuzz target FuzzUnlisted has no line in the Makefile's fuzz-smoke",
		"c_test.go:5:1: fuzz target FuzzElsewhere has no line in the Makefile's fuzz-smoke")
}
