package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// t4TimeColumn matches the last cell of a T4 data row: its mean
// isomorphism time, which is wall-clock and differs on every run.
var t4TimeColumn = regexp.MustCompile(`(?m)^(\d+ +\d+ +\d+ +)\S+ *$`)

// TestPaperTablesGolden pins the paper's deterministic figures and
// tables byte for byte against testdata/<id>.golden, so no refactor can
// move the reproduction unnoticed. T4 is pinned with its mean-time
// column masked; every other column of it is deterministic.
func TestPaperTablesGolden(t *testing.T) {
	for _, id := range []string{"F1", "F2", "F3", "F4", "F5", "T1", "T2", "T3", "T4", "T5", "T6"} {
		t.Run(id, func(t *testing.T) {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("experiment %s missing", id)
			}
			var buf bytes.Buffer
			if err := e.Run(&buf); err != nil {
				t.Fatal(err)
			}
			got := buf.Bytes()
			if id == "T4" {
				got = t4TimeColumn.ReplaceAll(got, []byte("${1}<time>"))
			}
			want, err := os.ReadFile(filepath.Join("testdata", id+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s drifted from testdata/%s.golden:\ngot\n%s\nwant\n%s", id, id, got, want)
			}
		})
	}
}
