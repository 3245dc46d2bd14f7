package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// binDir holds the minlint binary the end-to-end tests share.
var binDir string

var buildBin = sync.OnceValues(func() (string, error) {
	bin := filepath.Join(binDir, "minlint")
	if out, err := exec.Command("go", "build", "-o", bin, "minequiv/cmd/minlint").CombinedOutput(); err != nil {
		return "", fmt.Errorf("building minlint: %v\n%s", err, out)
	}
	return bin, nil
})

// minlintBinary builds cmd/minlint once per test binary.
func minlintBinary(t *testing.T) string {
	t.Helper()
	bin, err := buildBin()
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "minlint-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestVersionFull(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-V=full"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run(-V=full) = %d, stderr: %s", code, stderr.String())
	}
	// The go command parses "<name> version <...> buildID=<hex>".
	re := regexp.MustCompile(`^\S+ version \S+ [^\n]*buildID=[0-9a-f]+\n$`)
	if !re.MatchString(stdout.String()) {
		t.Fatalf("-V=full output %q does not match vet tool-ID format", stdout.String())
	}
}

func TestFlagsJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-flags"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run(-flags) = %d, stderr: %s", code, stderr.String())
	}
	for _, name := range []string{"detrand", "impboundary", "hotalloc", "errcodes", "metriclint"} {
		if !strings.Contains(stdout.String(), `"Name": "`+name+`"`) {
			t.Errorf("-flags output missing analyzer flag %q:\n%s", name, stdout.String())
		}
	}
}

// TestModuleClean is the dogfood gate: every analyzer over every
// package of this module must come back clean. It goes through the
// built binary: run's front door re-executes itself under go vet,
// which the test binary cannot stand in for.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the minlint binary and vets the whole module")
	}
	out, err := exec.Command(minlintBinary(t), "minequiv/...").CombinedOutput()
	if err != nil {
		t.Fatalf("minlint minequiv/...: %v\n%s", err, out)
	}
}

// TestVetTool proves the unit-checker protocol end to end: build the
// binary, run it under `go vet -vettool` against a throwaway module
// with a deliberate boundary violation, and check it is reported.
func TestVetTool(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the minlint binary and runs go vet")
	}
	bin := minlintBinary(t)
	tmp := t.TempDir()

	// A module named minequiv so the default boundary policy applies.
	mod := filepath.Join(tmp, "mod")
	write := func(rel, content string) {
		t.Helper()
		p := filepath.Join(mod, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module minequiv\n\ngo 1.24\n")
	write("internal/sim/sim.go", "package sim\n\n// Hidden is internal.\nfunc Hidden() int { return 1 }\n")
	write("leaky/leaky.go", "package leaky\n\nimport \"minequiv/internal/sim\"\n\n// Leak crosses the boundary.\nfunc Leak() int { return sim.Hidden() }\n")

	vet := exec.Command("go", "vet", "-vettool="+bin, "-impboundary", "./...")
	vet.Dir = mod
	out, err := vet.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -vettool succeeded, want boundary violation\n%s", out)
	}
	if !strings.Contains(string(out), "imports minequiv/internal/sim across the public API boundary") {
		t.Fatalf("go vet -vettool output missing boundary diagnostic:\n%s", out)
	}

	// And the clean path: drop the violation, vet must pass.
	write("leaky/leaky.go", "package leaky\n\n// Leak is gone.\nfunc Leak() int { return 1 }\n")
	vet = exec.Command("go", "vet", "-vettool="+bin, "-impboundary", "./...")
	vet.Dir = mod
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool on clean module: %v\n%s", err, out)
	}
}
