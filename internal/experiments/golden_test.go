package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mobileqoe/internal/fault"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// Golden coverage for Table.String() rendering: column alignment (table1's
// ragged device names), notes (fig7b), and the mean/p50/ci95 columns a
// multi-trial merge appends (fig3d at Trials: 3). Every one-axis sweep
// figure is pinned at quick(), and one page and one call sweep run under the
// default fault plan at Trials: 2, which pins the per-system injector seeds
// that depend on each system's position within its trial. Regenerate with
//
//	go test ./internal/experiments -run TestGolden -update
func goldenCases() []struct {
	name string
	id   string
	cfg  Config
} {
	multi := quick()
	multi.Trials = 3
	faulted := quick()
	faulted.Faults = fault.Default()
	faulted.Trials = 2
	type goldenCase = struct {
		name string
		id   string
		cfg  Config
	}
	cases := []goldenCase{
		{"table1", "table1", quick()},
		{"fig7b", "fig7b", quick()},
		{"fig3d-trials3", "fig3d", multi},
		{"fig3a-faults-trials2", "fig3a", faulted},
		{"fig5c-faults-trials2", "fig5c", faulted},
	}
	for _, id := range []string{"fig2b", "fig2c", "fig3a", "fig3b", "fig3c", "fig3d",
		"fig4a", "fig4b", "fig4c", "fig4d", "fig5a", "fig5b", "fig5c", "fig5d", "fig6"} {
		cases = append(cases, goldenCase{id, id, quick()})
	}
	return cases
}

func TestGoldenTableRendering(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			tab, err := Run(tc.id, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := tab.String()
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
				t.Errorf("rendering of %s changed; rerun with -update if intended.\n--- want ---\n%s--- got ---\n%s",
					tc.id, want, got)
			}
		})
	}
}

func TestGoldenFilesPresent(t *testing.T) {
	// Guard against a -update run silently writing nothing.
	for _, tc := range goldenCases() {
		path := filepath.Join("testdata", tc.name+".golden")
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(fmt.Errorf("missing golden file: %w", err))
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
}
