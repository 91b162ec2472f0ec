// Command doccheck keeps the repo's Markdown surface from rotting. It
// walks every *.md file under the given roots (default ".") and checks:
//
//   - Relative links: every [text](target) whose target is not an
//     absolute URL or a pure #anchor must resolve to an existing file or
//     directory, relative to the Markdown file. Targets that escape the
//     scanned root (e.g. GitHub-site-relative badge paths like
//     ../../actions/...) are skipped — they are not local files.
//   - Go code blocks: every ```go fence must parse. Full-file blocks
//     (starting with a package clause) must additionally be gofmt-clean.
//     Fragments are accepted if they parse as top-level declarations or
//     as statements (optionally below a leading import block), which is
//     how README-style snippets are written.
//   - Repository paths in prose: in README.md and docs/*.md, every
//     back-ticked path ending in .go, .md or .json, or starting with
//     internal/, pkg/, cmd/ or examples/, must exist. A bare file name (`tags.go`)
//     must exist somewhere in the tree; a Go selector after a package
//     path (`internal/cmp.System`) is dropped. CHANGES.md, ROADMAP.md and
//     EXPERIMENTS.md are logs of past states and are not checked.
//   - Library API names in prose: in the same files, every back-ticked
//     plru.X, cpapart.X or cpacache.X (optionally followed by .Y) must
//     name a top-level declaration X of that pkg/ directory, and Y a
//     method of X, read from its non-test Go files. A bare option name
//     (`WithWays(8)`, not preceded by a dot) must be declared by
//     pkg/cpacache, the only package whose options the docs name bare.
//   - Markdown named in Go comments: every *.md a comment names must
//     exist, next to the Go file or at the scanned root.
//   - The fuzz list: every -fuzz='^FuzzX$$' line of the Makefile's
//     fuzz-smoke recipe must name a FuzzX(*testing.F) declared in the
//     package that line runs, and every such declaration must have a
//     line. go test -fuzz exits 0 on a pattern that matches nothing, so
//     a stale or missing line would otherwise pass unnoticed.
//
// Exit status is nonzero when any check fails, so `make docs-check` and
// the CI docs job gate on it.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
)

var linkRe = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// codeSpanRe matches an inline code span, which checkLinks blanks out.
var codeSpanRe = regexp.MustCompile("`[^`]*`")

// pathSpanRe matches a one-token code span, captured without the ticks.
var pathSpanRe = regexp.MustCompile("`([^`\\s]+)`")

// apiRe matches a qualified library name such as cpapart.WayCaps or
// plru.Policy.Victim inside a code span.
var apiRe = regexp.MustCompile(`\b(plru|cpapart|cpacache)\.([A-Z]\w*)(?:\.([A-Za-z_]\w*))?`)

// optionRe matches an unqualified cpacache option name such as WithWays
// inside a code span (the span's opening backtick counts as the
// preceding non-dot character); a qualified one is apiRe's.
var optionRe = regexp.MustCompile(`[^.\w](With[A-Z]\w*)`)

// mdNameRe matches a Markdown file name in Go comment text.
var mdNameRe = regexp.MustCompile(`[\w./-]*\w\.md\b`)

// fuzzLineRe matches a fuzz-smoke recipe line, capturing the target's
// name and the package directory the line runs it in.
var fuzzLineRe = regexp.MustCompile(`-fuzz='\^(\w+)\$\$'.*\s\./(\S*)$`)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: doccheck [root ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	roots := flag.Args()
	if len(roots) == 0 {
		roots = []string{"."}
	}
	problems := 0
	for _, root := range roots {
		ps, err := checkTree(root)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		for _, p := range ps {
			fmt.Println(p)
		}
		problems += len(ps)
	}
	if problems > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d problem(s)\n", problems)
		os.Exit(1)
	}
}

// checkTree runs every check over the Markdown and Go files under root.
func checkTree(root string) ([]string, error) {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	var mdFiles, goFiles []string
	baseNames := map[string]bool{}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == ".git" || name == "vendor" || name == "node_modules" {
				return filepath.SkipDir
			}
			return nil
		}
		baseNames[d.Name()] = true
		switch {
		case strings.EqualFold(filepath.Ext(path), ".md"):
			mdFiles = append(mdFiles, path)
		case filepath.Ext(path) == ".go":
			goFiles = append(goFiles, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	api := map[string]map[string]bool{}
	for _, pkg := range []string{"plru", "cpapart", "cpacache"} {
		if api[pkg], err = declaredNames(filepath.Join(root, "pkg", pkg)); err != nil {
			return nil, err
		}
	}
	var problems []string
	for _, path := range mdFiles {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		problems = append(problems, checkLinks(path, absRoot, data)...)
		problems = append(problems, checkGoBlocks(path, data)...)
		if rel, _ := filepath.Rel(root, path); rel == "README.md" || filepath.Dir(rel) == "docs" {
			problems = append(problems, checkPathSpans(path, root, baseNames, api, data)...)
		}
	}
	var fuzzTargets []fuzzTarget
	for _, path := range goFiles {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		problems = append(problems, checkGoComments(fset, f, path, root)...)
		if strings.HasSuffix(path, "_test.go") {
			fuzzTargets = append(fuzzTargets, declaredFuzzTargets(fset, f, path, root)...)
		}
	}
	ps, err := checkFuzzSmoke(root, fuzzTargets)
	if err != nil {
		return nil, err
	}
	return append(problems, ps...), nil
}

// fuzzTarget is one FuzzX(*testing.F) declaration: its package directory
// relative to the root, in slash form, its name and its position.
type fuzzTarget struct {
	dir, name, pos string
}

// declaredFuzzTargets returns the fuzz targets a parsed test file declares.
func declaredFuzzTargets(fset *token.FileSet, f *ast.File, file, root string) []fuzzTarget {
	rel, _ := filepath.Rel(root, filepath.Dir(file))
	var out []fuzzTarget
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "Fuzz") {
			continue
		}
		if ps := fn.Type.Params.List; len(ps) == 1 && len(ps[0].Names) <= 1 && types.ExprString(ps[0].Type) == "*testing.F" {
			out = append(out, fuzzTarget{filepath.ToSlash(rel), fn.Name.Name, fset.Position(fn.Pos()).String()})
		}
	}
	return out
}

// checkFuzzSmoke matches the Makefile's fuzz-smoke recipe lines against
// the declared fuzz targets, both ways. A root without a Makefile lists
// no targets.
func checkFuzzSmoke(root string, declared []fuzzTarget) ([]string, error) {
	data, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	have := map[fuzzTarget]bool{}
	for _, t := range declared {
		have[fuzzTarget{dir: t.dir, name: t.name}] = true
	}
	var problems []string
	listed := map[fuzzTarget]bool{}
	inRecipe := false
	for i, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "fuzz-smoke:") {
			inRecipe = true
			continue
		}
		if !strings.HasPrefix(line, "\t") {
			inRecipe = false
		}
		m := fuzzLineRe.FindStringSubmatch(line)
		if !inRecipe || m == nil {
			continue
		}
		t := fuzzTarget{dir: filepath.ToSlash(filepath.Clean(m[2])), name: m[1]}
		listed[t] = true
		if !have[t] {
			problems = append(problems, fmt.Sprintf("Makefile:%d: fuzz-smoke runs %s in ./%s, which declares no such fuzz target", i+1, t.name, t.dir))
		}
	}
	for _, t := range declared {
		if !listed[fuzzTarget{dir: t.dir, name: t.name}] {
			problems = append(problems, fmt.Sprintf("%s: fuzz target %s has no line in the Makefile's fuzz-smoke", t.pos, t.name))
		}
	}
	return problems, nil
}

// checkPathSpans reports back-ticked repository paths that do not exist
// and back-ticked library names that api does not declare. Paths resolve
// against the scanned root; a bare file name only has to exist somewhere
// in the tree (baseNames).
func checkPathSpans(path, root string, baseNames map[string]bool, api map[string]map[string]bool, data []byte) []string {
	var problems []string
	inFence := false
	for lineNo, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, span := range codeSpanRe.FindAllString(line, -1) {
			for _, m := range apiRe.FindAllStringSubmatch(span, -1) {
				name := m[2]
				if m[3] != "" {
					name += "." + m[3]
				}
				if !api[m[1]][m[2]] || !api[m[1]][name] {
					problems = append(problems, fmt.Sprintf("%s:%d: pkg/%s declares no %s", path, lineNo+1, m[1], name))
				}
			}
			for _, m := range optionRe.FindAllStringSubmatch(span, -1) {
				if !api["cpacache"][m[1]] {
					problems = append(problems, fmt.Sprintf("%s:%d: pkg/cpacache declares no %s", path, lineNo+1, m[1]))
				}
			}
		}
		for _, m := range pathSpanRe.FindAllStringSubmatch(line, -1) {
			p := strings.TrimPrefix(m[1], "./")
			isFile := slices.Contains([]string{".go", ".md", ".json"}, filepath.Ext(p))
			if !isFile && !hasAnyPrefix(p, "internal/", "pkg/", "cmd/", "examples/") {
				continue
			}
			ok := exists(filepath.Join(root, p))
			switch {
			case isFile && !strings.Contains(p, "/"):
				ok = baseNames[p]
			case !ok && !isFile:
				// A Go selector: internal/cmp.System names internal/cmp.
				dir, last := "", p
				if i := strings.LastIndex(p, "/"); i >= 0 {
					dir, last = p[:i+1], p[i+1:]
				}
				last, _, _ = strings.Cut(last, ".")
				ok = exists(filepath.Join(root, dir+last))
			}
			if !ok {
				problems = append(problems, fmt.Sprintf("%s:%d: no such repository path %q", path, lineNo+1, m[1]))
			}
		}
	}
	return problems
}

// declaredNames reads the non-test Go files of dir and returns its
// top-level declarations as "X" and its methods as "X.Y". A missing dir
// declares nothing.
func declaredNames(dir string) (map[string]bool, error) {
	names := map[string]bool{}
	files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if d.Recv != nil {
					recv, _, _ := strings.Cut(strings.TrimLeft(types.ExprString(d.Recv.List[0].Type), "*"), "[")
					name = recv + "." + name
				}
				names[name] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
	}
	return names, nil
}

// checkGoComments reports *.md files named in a parsed Go file's comments
// that exist neither next to the file nor at the scanned root.
func checkGoComments(fset *token.FileSet, f *ast.File, path, root string) []string {
	var problems []string
	for _, g := range f.Comments {
		for _, c := range g.List {
			for _, name := range mdNameRe.FindAllString(c.Text, -1) {
				if !exists(filepath.Join(filepath.Dir(path), name)) && !exists(filepath.Join(root, name)) {
					problems = append(problems, fmt.Sprintf("%s: comment names missing %s", fset.Position(c.Pos()), name))
				}
			}
		}
	}
	return problems
}

func hasAnyPrefix(s string, prefixes ...string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// checkLinks validates relative link targets against the filesystem.
// Fenced code blocks and inline code spans are skipped: `fns[op](x)` in a
// snippet is an index expression, not a Markdown link.
func checkLinks(path, absRoot string, data []byte) []string {
	var problems []string
	dir := filepath.Dir(path)
	inFence := false
	for lineNo, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, m := range linkRe.FindAllStringSubmatch(codeSpanRe.ReplaceAllString(line, ""), -1) {
			target := m[1]
			if target == "" ||
				strings.Contains(target, "://") ||
				strings.HasPrefix(target, "mailto:") ||
				strings.HasPrefix(target, "#") {
				continue
			}
			target, _, _ = strings.Cut(target, "#")
			resolved := filepath.Join(dir, target)
			abs, err := filepath.Abs(resolved)
			if err != nil || !strings.HasPrefix(abs, absRoot+string(filepath.Separator)) && abs != absRoot {
				continue // escapes the scanned tree (site-relative URL): not a local file
			}
			if _, err := os.Stat(resolved); err != nil {
				problems = append(problems, fmt.Sprintf("%s:%d: broken link %q", path, lineNo+1, m[1]))
			}
		}
	}
	return problems
}

// checkGoBlocks extracts ```go fences and checks they parse (and, for
// full-file blocks, that they are gofmt-clean).
func checkGoBlocks(path string, data []byte) []string {
	var problems []string
	lines := strings.Split(string(data), "\n")
	for i := 0; i < len(lines); i++ {
		if strings.TrimSpace(lines[i]) != "```go" {
			continue
		}
		start := i + 1
		j := start
		for j < len(lines) && strings.TrimSpace(lines[j]) != "```" {
			j++
		}
		if j == len(lines) {
			problems = append(problems, fmt.Sprintf("%s:%d: unterminated ```go fence", path, i+1))
			break
		}
		block := strings.Join(lines[start:j], "\n")
		problems = append(problems, checkGoBlock(path, start+1, block)...)
		i = j
	}
	return problems
}

// checkGoBlock validates one fenced Go block.
func checkGoBlock(path string, line int, block string) []string {
	trimmed := strings.TrimSpace(block)
	if trimmed == "" {
		return nil
	}
	if strings.HasPrefix(trimmed, "package ") {
		// A complete file: must parse and be gofmt-clean.
		if err := parses(block); err != nil {
			return []string{fmt.Sprintf("%s:%d: go block does not parse: %v", path, line, err)}
		}
		formatted, err := format.Source([]byte(block))
		if err != nil {
			return []string{fmt.Sprintf("%s:%d: gofmt: %v", path, line, err)}
		}
		if !bytes.Equal(bytes.TrimSpace(formatted), []byte(trimmed)) {
			return []string{fmt.Sprintf("%s:%d: go block is not gofmt-formatted", path, line)}
		}
		return nil
	}
	// A fragment: accept top-level declarations, bare statements, or a
	// leading import block followed by statements.
	header, rest := splitImports(block)
	candidates := []string{
		"package p\n" + block,
		"package p\nfunc _() {\n" + block + "\n}",
		"package p\n" + header + "\nfunc _() {\n" + rest + "\n}",
	}
	var firstErr error
	for _, src := range candidates {
		if err := parses(src); err == nil {
			return nil
		} else if firstErr == nil {
			firstErr = err
		}
	}
	return []string{fmt.Sprintf("%s:%d: go fragment does not parse: %v", path, line, firstErr)}
}

// splitImports separates a leading import declaration (single-line or
// grouped) from the rest of a fragment.
func splitImports(block string) (header, rest string) {
	lines := strings.Split(block, "\n")
	i := 0
	for i < len(lines) && strings.TrimSpace(lines[i]) == "" {
		i++
	}
	if i >= len(lines) || !strings.HasPrefix(strings.TrimSpace(lines[i]), "import") {
		return "", block
	}
	if strings.Contains(lines[i], "(") {
		j := i
		for j < len(lines) && !strings.HasPrefix(strings.TrimSpace(lines[j]), ")") {
			j++
		}
		if j == len(lines) {
			return "", block
		}
		return strings.Join(lines[i:j+1], "\n"), strings.Join(lines[j+1:], "\n")
	}
	return lines[i], strings.Join(lines[i+1:], "\n")
}

// parses reports whether src parses as a Go file.
func parses(src string) error {
	fset := token.NewFileSet()
	_, err := parser.ParseFile(fset, "block.go", src, 0)
	return err
}
