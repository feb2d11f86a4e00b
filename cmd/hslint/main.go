// Command hslint is the repo's invariant checker: a stdlib-only multichecker
// over the analyzers in internal/analysis. It enforces, at CI time, the
// contracts the engine's correctness rests on — the trainer's lock order,
// snapshot immutability, search determinism, errors.Is matching, float
// comparison discipline, context propagation, goroutine lifecycle, atomic
// publication, and bounded container growth. See DESIGN.md §10 and §15.
//
// Usage:
//
//	hslint ./...                      lint packages (go list patterns)
//	hslint -dir path/to/testdata      lint loose directories (testdata trees
//	                                  the go tool will not enumerate)
//	hslint -checks floateq,errcmp ./...
//	hslint -fix -diff ./...           show the diff -fix would apply
//	hslint -fix ./...                 apply suggested fixes in place
//	hslint -format sarif ./...        SARIF 2.1.0 on stdout (CI annotations)
//	hslint -list                      machine-readable check listing
//
// Diagnostics print as file:line:col: message [check]. Exit status: 0
// clean, 1 diagnostics reported, 2 usage or load failure.
//
// A site may suppress one diagnostic with an in-line directive carrying a
// mandatory reason:
//
//	//hslint:ignore <check> <reason>
//
// Unknown check names, missing reasons, and stale directives are themselves
// diagnostics, so suppressions cannot rot.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hsmodel/internal/analysis"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		dirMode = flag.Bool("dir", false, "treat arguments as directories of Go files (testdata trees) instead of package patterns")
		checks  = flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
		list    = flag.Bool("list", false, "list available checks (name<TAB>doc per line) and exit")
		fix     = flag.Bool("fix", false, "apply suggested fixes to the source tree")
		diff    = flag.Bool("diff", false, "with -fix, print the diff instead of writing files")
		format  = flag.String("format", "text", "output format: text or sarif")
	)
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%s\t%s\n", a.Name, a.Doc)
		}
		return 0
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: hslint [-dir] [-checks c1,c2] [-fix [-diff]] [-format text|sarif] patterns...")
		return 2
	}
	if *format != "text" && *format != "sarif" {
		fmt.Fprintf(os.Stderr, "hslint: unknown format %q (available: text, sarif)\n", *format)
		return 2
	}

	var names []string
	if *checks != "" {
		names = strings.Split(*checks, ",")
	}
	analyzers, err := analysis.Select(names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hslint:", err)
		return 2
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hslint:", err)
		return 2
	}
	loader := analysis.NewLoader(cwd)

	var pkgs []*analysis.Package
	if *dirMode {
		for _, dir := range flag.Args() {
			loaded, err := loader.LoadDir(dir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hslint:", err)
				return 2
			}
			pkgs = append(pkgs, loaded...)
		}
	} else {
		pkgs, err = loader.LoadPackages(flag.Args()...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hslint:", err)
			return 2
		}
	}

	diags := analysis.Run(pkgs, analyzers)

	if *fix {
		results, err := analysis.ApplyFixes(diags, !*diff)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hslint:", err)
			return 2
		}
		applied, skipped := 0, 0
		for _, r := range results {
			applied += r.Applied
			skipped += r.Skipped
			if *diff && r.Applied > 0 {
				fmt.Print(analysis.Diff(r))
			}
		}
		if !*diff {
			fmt.Fprintf(os.Stderr, "hslint: applied %d fix(es)", applied)
			if skipped > 0 {
				fmt.Fprintf(os.Stderr, ", skipped %d (overlap)", skipped)
			}
			fmt.Fprintln(os.Stderr)
		}
		return 0
	}

	if *format == "sarif" {
		out, err := analysis.SARIF(diags, analyzers, cwd)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hslint:", err)
			return 2
		}
		fmt.Println(string(out))
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
