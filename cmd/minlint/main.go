// Command minlint is the repo's static-contract checker: a
// multichecker over the analyzers in internal/lint (detrand,
// impboundary, hotalloc, errcodes, metriclint).
//
// Called with package patterns,
//
//	minlint [-detrand] [-impboundary] [...] [packages]
//
// it runs `go vet -vettool=<this executable>` over the packages
// (default ./...) with its arguments passed through, so the go command
// loads, compiles and caches every unit and hands each one back as a
// *.cfg. The selected analyzers run (none selected = all); findings go
// to stderr and the exit status is non-zero if there were any.
//
// As a vet tool:
//
//	go vet -vettool=$(which minlint) ./...
//
// it speaks the go vet unit-checker protocol: -V=full for the tool
// build ID, -flags for the flag inventory, and a single *.cfg argument
// per compilation unit, with diagnostics on stderr and exit status 2.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"minequiv/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 1 && args[0] == "-V=full" {
		return printVersion(stdout, stderr)
	}

	fs := flag.NewFlagSet("minlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	selected := map[string]*bool{}
	for _, a := range lint.Analyzers {
		selected[a.Name] = fs.Bool(a.Name, false, firstLine(a.Doc))
	}
	flagsJSON := fs.Bool("flags", false, "print analyzer flags in JSON (vet driver protocol)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: minlint [analyzer flags] [package pattern ...]\n")
		fmt.Fprintf(stderr, "       go vet -vettool=$(which minlint) [analyzer flags] [package pattern ...]\n\n")
		fmt.Fprintf(stderr, "With no analyzer flags, every analyzer runs.\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *flagsJSON {
		return printFlags(fs, stdout, stderr)
	}

	rest := fs.Args()
	if len(rest) != 1 || !strings.HasSuffix(rest[0], ".cfg") {
		return vet(args, rest, stdout, stderr)
	}

	var analyzers []*lint.Analyzer
	for _, a := range lint.Analyzers {
		if *selected[a.Name] {
			analyzers = append(analyzers, a)
		}
	}
	if len(analyzers) == 0 {
		analyzers = lint.Analyzers
	}
	return unitCheck(rest[0], analyzers, stderr)
}

// vet runs go vet with this executable as the vet tool, passing args
// through; the go command calls back once per compile unit with a
// *.cfg, which unitCheck analyzes.
func vet(args, patterns []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "minlint:", err)
		return 2
	}
	vetArgs := append([]string{"vet", "-vettool=" + exe}, args...)
	if len(patterns) == 0 {
		vetArgs = append(vetArgs, "./...")
	}
	cmd := exec.Command("go", vetArgs...)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			return exit.ExitCode()
		}
		fmt.Fprintln(stderr, "minlint:", err)
		return 2
	}
	return 0
}

// vetConfig is the unit-checker configuration the go command writes
// for each compilation unit (see x/tools unitchecker; reimplemented
// here to keep the module dependency-free).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// unitCheck analyzes one compilation unit described by cfgFile.
func unitCheck(cfgFile string, analyzers []*lint.Analyzer, stderr io.Writer) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintln(stderr, "minlint:", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(stderr, "minlint: parsing %s: %v\n", cfgFile, err)
		return 2
	}
	// The go command caches this unit's result keyed on the facts
	// output; minlint keeps no facts but the file must exist.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintln(stderr, "minlint:", err)
			return 2
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintln(stderr, err)
			return 2
		}
		files = append(files, f)
	}
	compilerImp := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		if mapped, ok := cfg.ImportMap[importPath]; ok {
			importPath = mapped
		}
		return compilerImp.Import(importPath)
	})
	info := lint.NewInfo()
	tconf := types.Config{Importer: imp, Error: func(error) {}}
	tpkg, err := tconf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(stderr, err)
		return 2
	}

	// Test variants arrive as "path [path.test]" with their _test.go
	// files compiled in; analyzers key on the base path and skip test
	// files where a contract covers production code only.
	pkg := &lint.Package{
		Path:  basePath(cfg.ImportPath),
		Fset:  fset,
		Files: files,
		Pkg:   tpkg,
		Info:  info,
	}
	diags, err := lint.Run([]*lint.Package{pkg}, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, "minlint:", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(stderr, d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// basePath strips a unit-checker test-variant suffix: "p [p.test]" -> "p".
func basePath(importPath string) string {
	if i := strings.Index(importPath, " ["); i >= 0 {
		return importPath[:i]
	}
	return importPath
}

// printVersion implements -V=full: the go command derives the vet
// tool's build ID from this line, so it must change when the binary
// does — hash the executable, same as x/tools' unitchecker.
func printVersion(stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "minlint:", err)
		return 2
	}
	f, err := os.Open(exe)
	if err != nil {
		fmt.Fprintln(stderr, "minlint:", err)
		return 2
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fmt.Fprintln(stderr, "minlint:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s version devel comments-go-here buildID=%02x\n",
		filepath.Base(exe), h.Sum(nil))
	return 0
}

// printFlags implements -flags: the go command asks the vet tool which
// flags it understands before forwarding any.
func printFlags(fs *flag.FlagSet, stdout, stderr io.Writer) int {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var out []jsonFlag
	fs.VisitAll(func(f *flag.Flag) {
		if f.Name == "flags" {
			return
		}
		out = append(out, jsonFlag{Name: f.Name, Bool: true, Usage: f.Usage})
	})
	data, err := json.MarshalIndent(out, "", "\t")
	if err != nil {
		fmt.Fprintln(stderr, "minlint:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(data))
	return 0
}

// firstLine trims an analyzer Doc to its first line for flag usage
// text.
func firstLine(doc string) string {
	if i := strings.IndexByte(doc, '\n'); i >= 0 {
		doc = doc[:i]
	}
	return strings.TrimSpace(doc)
}
