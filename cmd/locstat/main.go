// Command locstat is the analogue of the paper's Section 5, which reports
// how much subsystem code the sf_buf interface eliminated ("the conversion
// of pipes eliminated 42 lines of code ... most of the eliminated code was
// for the allocation of temporary virtual addresses").
//
// It parses this repository's Go sources and compares, per subsystem, the
// size of the sf_buf-interface code path against the original-kernel code
// path — the same modularity argument, measured on this reproduction.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

// funcLines returns the line count of each named function or method in a
// file, keyed by name.
func funcLines(fset *token.FileSet, path string) (map[string]int, error) {
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int)
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		start := fset.Position(fn.Pos()).Line
		end := fset.Position(fn.End()).Line
		out[fn.Name.Name] = end - start + 1
	}
	return out, nil
}

// fileLines returns the total line count of a file.
func fileLines(path string) (int, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return strings.Count(string(b), "\n") + 1, nil
}

type comparison struct {
	subsystem string
	sfbufDesc string
	sfbuf     int
	origDesc  string
	orig      int
	paperNote string
}

func main() {
	root := flag.String("root", ".", "repository root")
	flag.Parse()
	fset := token.NewFileSet()

	mustFuncs := func(rel string) map[string]int {
		m, err := funcLines(fset, filepath.Join(*root, rel))
		if err != nil {
			fmt.Fprintf(os.Stderr, "locstat: %s: %v\n", rel, err)
			os.Exit(1)
		}
		return m
	}
	mustFile := func(rel string) int {
		n, err := fileLines(filepath.Join(*root, rel))
		if err != nil {
			fmt.Fprintf(os.Stderr, "locstat: %s: %v\n", rel, err)
			os.Exit(1)
		}
		return n
	}

	pipe := mustFuncs("internal/pipe/pipe.go")
	sum := func(m map[string]int, names ...string) int {
		t := 0
		for _, n := range names {
			t += m[n]
		}
		return t
	}

	comparisons := []comparison{
		{
			subsystem: "pipe direct-read path",
			sfbufDesc: "readDirect (per-page sf_buf loop)",
			sfbuf:     pipe["readDirect"],
			origDesc:  "readExtent + finishWindow (window mapping management)",
			orig:      sum(pipe, "readExtent", "finishWindow"),
			paperNote: "paper: converting pipes eliminated 42 lines",
		},
		{
			subsystem: "ephemeral mapping layer (amd64)",
			sfbufDesc: "internal/sfbuf/amd64.go (direct map)",
			sfbuf:     mustFile("internal/sfbuf/amd64.go"),
			origDesc:  "internal/sfbuf/original.go (VA alloc + shootdowns)",
			orig:      mustFile("internal/sfbuf/original.go"),
			paperNote: "the amd64 sf_buf implementation is 'nothing more than cast operations'",
		},
		{
			subsystem: "ephemeral mapping layer (i386)",
			sfbufDesc: "internal/sfbuf/i386.go + cache.go (mapping cache)",
			sfbuf:     mustFile("internal/sfbuf/i386.go") + mustFile("internal/sfbuf/cache.go"),
			origDesc:  "internal/sfbuf/original.go",
			orig:      mustFile("internal/sfbuf/original.go"),
			paperNote: "the complexity moves INTO the MD layer once, out of every subsystem",
		},
	}

	fmt.Println("Lines-of-code comparison (Section 5 analogue)")
	fmt.Println()
	for _, c := range comparisons {
		fmt.Printf("%s\n", c.subsystem)
		fmt.Printf("  sf_buf path:   %4d lines  (%s)\n", c.sfbuf, c.sfbufDesc)
		fmt.Printf("  original path: %4d lines  (%s)\n", c.orig, c.origDesc)
		if c.sfbuf < c.orig {
			fmt.Printf("  saved:         %4d lines\n", c.orig-c.sfbuf)
		}
		fmt.Printf("  note: %s\n\n", c.paperNote)
	}

	// Package inventory, for the README's architecture overview.
	fmt.Println("Per-package source sizes:")
	var pkgs []string
	filepath.Walk(filepath.Join(*root, "internal"), func(path string, info os.FileInfo, err error) error {
		if err == nil && info.IsDir() {
			pkgs = append(pkgs, path)
		}
		return nil
	})
	for _, p := range pkgs {
		entries, err := os.ReadDir(p)
		if err != nil {
			continue
		}
		var code, tests int
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			n, err := fileLines(filepath.Join(p, e.Name()))
			if err != nil {
				continue
			}
			if strings.HasSuffix(e.Name(), "_test.go") {
				tests += n
			} else {
				code += n
			}
		}
		if code > 0 {
			rel, _ := filepath.Rel(*root, p)
			fmt.Printf("  %-28s %5d code  %5d test\n", rel, code, tests)
		}
	}
}
