// Command blendlint runs BLEND's in-tree invariant suite (see
// internal/lint): berrcheck, ctxflow, lockguard, poolcheck.
//
// Usage (make lint and make lint-fix run the first two):
//
//	blendlint ./...                 # analyze packages, report findings
//	blendlint -fix ./...            # additionally apply suggested fixes
//	blendlint -only berrcheck ./... # run a subset of the suite
//	blendlint -list                 # describe the analyzers
package main

import (
	"flag"
	"fmt"
	"go/format"
	"go/token"
	"os"
	"sort"
	"strings"

	"blend/internal/lint"
)

func main() {
	var (
		fixFlag  = flag.Bool("fix", false, "apply suggested fixes (berrcheck rewrites)")
		onlyFlag = flag.String("only", "", "comma-separated analyzer subset to run")
		listFlag = flag.Bool("list", false, "list the analyzers and exit")
	)
	flag.Parse()

	if *listFlag {
		for _, a := range lint.All() {
			fmt.Printf("%s: %s\n", a.Name, a.Doc)
		}
		return
	}
	analyzers := lint.All()
	if *onlyFlag != "" {
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*onlyFlag, ",") {
			a := lint.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "blendlint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}
	os.Exit(run(flag.Args(), analyzers, *fixFlag))
}

// run loads patterns with the go tool and runs the suite.
func run(patterns []string, analyzers []*lint.Analyzer, fix bool) int {
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "blendlint:", err)
		return 2
	}
	pkgs, fset, err := lint.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "blendlint:", err)
		return 2
	}
	diags, err := lint.Run(pkgs, fset, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "blendlint:", err)
		return 2
	}
	if fix {
		fixed, err := applyFixes(fset, diags)
		if err != nil {
			fmt.Fprintln(os.Stderr, "blendlint:", err)
			return 2
		}
		for _, f := range fixed {
			fmt.Fprintf(os.Stderr, "blendlint: fixed %s\n", f)
		}
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// applyFixes rewrites source files with the diagnostics' suggested edits
// (first fix per diagnostic), gofmt-ing the result. Returns the touched
// file names.
func applyFixes(fset *token.FileSet, diags []lint.Diagnostic) ([]string, error) {
	type edit struct {
		start, end int
		text       []byte
	}
	perFile := make(map[string][]edit)
	for _, d := range diags {
		if len(d.Fixes) == 0 {
			continue
		}
		for _, e := range d.Fixes[0].Edits {
			pos := fset.Position(e.Pos)
			end := fset.Position(e.End)
			if pos.Filename == "" || pos.Filename != end.Filename {
				continue
			}
			perFile[pos.Filename] = append(perFile[pos.Filename],
				edit{start: pos.Offset, end: end.Offset, text: e.NewText})
		}
	}
	var files []string
	for name, edits := range perFile {
		src, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		sort.Slice(edits, func(i, j int) bool { return edits[i].start > edits[j].start })
		for _, e := range edits {
			if e.start < 0 || e.end > len(src) || e.start > e.end {
				return nil, fmt.Errorf("fix out of range in %s", name)
			}
			src = append(src[:e.start], append(append([]byte{}, e.text...), src[e.end:]...)...)
		}
		if formatted, err := format.Source(src); err == nil {
			src = formatted
		}
		if err := os.WriteFile(name, src, 0o644); err != nil {
			return nil, err
		}
		files = append(files, name)
	}
	sort.Strings(files)
	return files, nil
}
