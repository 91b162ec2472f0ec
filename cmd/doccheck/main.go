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
//
// Exit status is nonzero when any check fails, so `make docs-check` and
// the CI docs job gate on it.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

var linkRe = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// codeSpanRe matches an inline code span, which checkLinks blanks out.
var codeSpanRe = regexp.MustCompile("`[^`]*`")

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
		absRoot, err := filepath.Abs(root)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
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
			if !strings.EqualFold(filepath.Ext(path), ".md") {
				return nil
			}
			for _, p := range checkFile(path, absRoot) {
				fmt.Println(p)
				problems++
			}
			return nil
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if problems > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d problem(s)\n", problems)
		os.Exit(1)
	}
}

// checkFile returns the problems found in one Markdown file.
func checkFile(path, absRoot string) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", path, err)}
	}
	var problems []string
	problems = append(problems, checkLinks(path, absRoot, data)...)
	problems = append(problems, checkGoBlocks(path, data)...)
	return problems
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
