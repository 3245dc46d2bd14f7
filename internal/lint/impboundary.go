package lint

import (
	"path"
	"strconv"
	"strings"
)

// BoundaryConfig is the public-API boundary policy: who may import the
// module's internal packages. This Go table replaces the shell grep
// that used to live in CI — the allowlist is code, reviewed like code.
type BoundaryConfig struct {
	// InternalPrefix guards every package under it (and the prefix
	// itself), e.g. "minequiv/internal".
	InternalPrefix string
	// AllowedPackages may import internal packages (exact import
	// paths). Packages under InternalPrefix are always allowed.
	AllowedPackages []string
	// AllowedFiles are "importPath/filename" entries exempting one
	// file — the root bench harness needs the internal experiment
	// tables without opening the boundary for the whole root package.
	AllowedFiles []string
}

// DefaultBoundary is the repo's sealed-surface policy: the public
// `min` facade is the only supported library surface; everything else
// reaches internals through it. cmd/minbench regenerates the
// EXPERIMENTS.md tables, cmd/minlint is the static-contract driver
// over internal/lint, bench_test.go is the root benchmark harness and
// differential_test.go the cross-surface oracle (it reads job cells
// and binary frames as their owners define them) — all module-internal
// tooling, not API consumers. minserve is the
// HTTP service: its request surface rides the min facade, but its
// asynchronous job plane is internal/jobs (sweep scheduling and
// checkpointing are serving concerns, not library API).
var DefaultBoundary = BoundaryConfig{
	InternalPrefix: "minequiv/internal",
	AllowedPackages: []string{
		"minequiv/min",
		"minequiv/minserve",
		"minequiv/cmd/minbench",
		"minequiv/cmd/minlint",
	},
	AllowedFiles: []string{
		"minequiv/bench_test.go",
		"minequiv/differential_test.go",
	},
}

// ImpBoundary is the boundary analyzer under the default policy.
var ImpBoundary = NewImpBoundary(DefaultBoundary)

// NewImpBoundary builds the import-boundary analyzer. It is purely
// syntactic (import declarations only), so it covers test files too —
// the old grep did, and external test packages are a classic leak
// path.
func NewImpBoundary(cfg BoundaryConfig) *Analyzer {
	allowedPkg := map[string]bool{}
	for _, p := range cfg.AllowedPackages {
		allowedPkg[p] = true
	}
	allowedFile := map[string]bool{}
	for _, f := range cfg.AllowedFiles {
		allowedFile[f] = true
	}
	guarded := func(importPath string) bool {
		return importPath == cfg.InternalPrefix ||
			strings.HasPrefix(importPath, cfg.InternalPrefix+"/")
	}
	a := &Analyzer{
		Name: "impboundary",
		Doc:  "seal the internal/ surface: only the min facade, internal packages, and listed tooling may import " + cfg.InternalPrefix + "/...",
	}
	a.Run = func(pass *Pass) error {
		if guarded(pass.Path) || allowedPkg[pass.Path] {
			return nil
		}
		for _, f := range pass.AllFiles() {
			fileName := path.Base(pass.Fset.Position(f.Pos()).Filename)
			if allowedFile[pass.Path+"/"+fileName] {
				continue
			}
			for _, imp := range f.Imports {
				target, _ := strconv.Unquote(imp.Path.Value)
				if guarded(target) {
					pass.Reportf(imp.Pos(), "package %s imports %s across the public API boundary; use the min facade (allowlist: internal/lint/impboundary.go)", pass.Path, target)
				}
			}
		}
		return nil
	}
	return a
}
