package main

import (
	"go/token"
	"strings"
	"testing"
)

// TestComparisonsResolve runs the table's lookups against this
// repository: every named file and function must exist and count lines.
func TestComparisonsResolve(t *testing.T) {
	cs, err := comparisons("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cs {
		if c.sfbuf <= 0 || c.orig <= 0 {
			t.Errorf("%s: %d sf_buf lines, %d original lines", c.subsystem, c.sfbuf, c.orig)
		}
	}
}

// TestMissingNamesFail: a function or file that does not exist is an
// error, not a silent zero.
func TestMissingNamesFail(t *testing.T) {
	c := &counter{root: "../..", fset: token.NewFileSet()}
	c.funcs("internal/pipe/pipe.go", "readDirect", "noSuchFunction")
	if c.err == nil || !strings.Contains(c.err.Error(), "noSuchFunction") {
		t.Fatalf("missing function: err = %v", c.err)
	}
	c = &counter{root: "../..", fset: token.NewFileSet()}
	c.file("internal/pipe/no_such_file.go")
	if c.err == nil {
		t.Fatal("missing file: no error")
	}
}
