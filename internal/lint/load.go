package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os/exec"
	"strings"
)

// listPackage is the subset of `go list -json` output GoListExports
// reads.
type listPackage struct {
	ImportPath string
	Export     string
}

// goList runs the go command and decodes its JSON package stream.
func goList(args ...string) ([]*listPackage, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []*listPackage
	for {
		var p listPackage
		if derr := dec.Decode(&p); derr == io.EOF {
			break
		} else if derr != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", derr)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// GoListExports resolves patterns (typically standard-library import
// paths) to compiled export data for them and all their dependencies:
// import path -> export file.
func GoListExports(patterns ...string) (map[string]string, error) {
	listed, err := goList(append([]string{"-deps", "-export", "-json=ImportPath,Export"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(listed))
	for _, p := range listed {
		if p.Export != "" {
			out[p.ImportPath] = p.Export
		}
	}
	return out, nil
}
