package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenCases are the command lines whose exit code, stdout and stderr are
// pinned under testdata/<name>.golden. Regenerate with
//
//	go test ./cmd/regexdsp -run TestGolden -update
var goldenCases = []struct {
	name string
	args []string
}{
	{"suite", nil},
	{"custom", []string{"-pattern", "(ads|track)/", "-input", "https://x.com/ads/unit.js", "-repeat", "500"}},
	{"compile-error", []string{"-pattern", "(ab", "-input", "abc"}},
	{"zero-cpu-mhz", []string{"-cpu-mhz", "0"}},
	{"negative-repeat", []string{"-repeat", "-5"}},
	{"inf-repeat", []string{"-repeat", "+Inf"}},
	{"nan-cpu-ipc", []string{"-cpu-ipc", "NaN"}},
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
				t.Errorf("regexdsp %q changed; rerun with -update if intended.\n--- want ---\n%s--- got ---\n%s",
					tc.args, want, got)
			}
		})
	}
}
