package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mobileqoe/internal/fault"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// Golden coverage for Table.String() rendering: column alignment (table1's
// ragged device names), notes (fig7b), and the mean/p50/ci95 columns a
// multi-trial merge appends (fig3d at Trials: 3). Every sweep table is
// pinned at quick(), and a page, a call, a mixed iperf-and-page and a
// network-then-HTTP/2 sweep run under the default fault plan at Trials: 2,
// which pins the per-system injector seeds that depend on each system's
// position within its trial. abl-prefetch at a 672 ms clip pins its exactly
// doubled clip length. Regenerate with
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
	shortClip := quick()
	shortClip.ClipDuration = 672 * time.Millisecond
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
		{"abl-packetcpu-faults-trials2", "abl-packetcpu", faulted},
		{"ext-h2-faults-trials2", "ext-h2", faulted},
		{"abl-prefetch-clip672ms", "abl-prefetch", shortClip},
	}
	for _, id := range []string{"fig2b", "fig2c", "fig3a", "fig3b", "fig3c", "fig3d",
		"fig4a", "fig4b", "fig4c", "fig4d", "fig5a", "fig5b", "fig5c", "fig5d", "fig6",
		"fig2a", "abl-packetcpu", "abl-prefetch", "abl-hwdecoder", "abl-biglittle",
		"ext-tls", "ext-h2", "ext-browsers", "ext-joint"} {
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
