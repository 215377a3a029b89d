package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenCases are the command lines whose exit code, stdout and stderr are
// pinned under testdata/<name>.golden. Regenerate with
//
//	go test ./cmd/pageload -run TestGolden -update
var goldenCases = []struct {
	name string
	args []string
}{
	{"default", nil},
	{"waterfall", []string{"-waterfall"}},
	{"timeline", []string{"-timeline"}},
	{"profile", []string{"-profile"}},
	{"faults-default", []string{"-faults", "default"}},
	{"pixel2-seed42", []string{"-device", "Google Pixel2", "-seed", "42"}},
	{"bogus-category", []string{"-category", "bogus"}},
}

// runCLI drives run the way main does and renders the outcome as one
// record: the exit code, then stdout, then stderr.
func runCLI(args ...string) string {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return fmt.Sprintf("exit %d\n--- stdout ---\n%s--- stderr ---\n%s", code, stdout.String(), stderr.String())
}

func TestGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			got := runCLI(tc.args...)
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if got != string(want) {
				t.Errorf("pageload %q changed; rerun with -update if intended.\n--- want ---\n%s--- got ---\n%s",
					tc.args, want, got)
			}
		})
	}
}

// TestRunLogCellIndependentOfMetrics pins that a run-log cell is the same
// record with and without -metrics, apart from its host wall time: -runlog
// alone collects the registry the cell's virtual time and fault counts come
// from.
func TestRunLogCellIndependentOfMetrics(t *testing.T) {
	dir := t.TempDir()
	cell := func(extra ...string) map[string]any {
		t.Helper()
		path := filepath.Join(dir, fmt.Sprintf("run%d.ndjson", len(extra)))
		args := append([]string{"-faults", "default", "-runlog", path}, extra...)
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%q: exit %d\n%s", args, code, stderr.String())
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var cells []map[string]any
		for sc := bufio.NewScanner(f); sc.Scan(); {
			var rec map[string]any
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				t.Fatal(err)
			}
			if rec["type"] == "cell" {
				delete(rec, "wall_ms")
				cells = append(cells, rec)
			}
		}
		if len(cells) != 1 {
			t.Fatalf("%q: %d cell records, want 1", args, len(cells))
		}
		return cells[0]
	}
	plain, metrics := cell(), cell("-metrics")
	if !reflect.DeepEqual(plain, metrics) {
		t.Errorf("cell differs with -metrics:\n without: %v\n with:    %v", plain, metrics)
	}
	if n, _ := plain["faults_injected"].(float64); n <= 0 {
		t.Errorf("faults_injected = %v, want > 0 under -faults default", plain["faults_injected"])
	}
}
