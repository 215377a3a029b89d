package webpage

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestScriptWorkPerPage pins every page's script work, one line per page of
// Top50(1), Top50(2) and SportsTop20(1): the summed ops, string bytes,
// regex calls and regex steps of its scripts' profiles. TestTop50WorkPinned
// checks one corpus-wide sum, where errors on two pages could cancel out;
// here each page must match on its own. These counts become the simulated
// CPU work of every page load, so an interpreter change must leave the
// file untouched. Regenerate it (only for an intended change in the work)
// with:
//
//	go test ./internal/webpage -run TestScriptWorkPerPage -update
func TestScriptWorkPerPage(t *testing.T) {
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "# corpus page ops str_bytes regex_calls pike_steps bt_steps")
	for _, c := range []struct {
		name  string
		pages []*Page
	}{
		{"top50-1", Top50(1)},
		{"top50-2", Top50(2)},
		{"sports20-1", SportsTop20(1)},
	} {
		for _, p := range c.pages {
			var w Profile
			for i := range p.Resources {
				prof := p.Resources[i].Profile()
				if prof == nil {
					continue
				}
				w.Ops += prof.Ops
				w.StrBytes += prof.StrBytes
				w.Regex.Count += prof.Regex.Count
				w.Regex.PikeSteps += prof.Regex.PikeSteps
				w.Regex.BTSteps += prof.Regex.BTSteps
			}
			fmt.Fprintf(&buf, "%s %s %d %d %d %d %d\n", c.name, p.Name,
				w.Ops, w.StrBytes, w.Regex.Count, w.Regex.PikeSteps, w.Regex.BTSteps)
		}
	}
	path := filepath.Join("testdata", "script_work.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("per-page script work changed; rerun with -update only if intended.\n--- want ---\n%s--- got ---\n%s", want, buf.Bytes())
	}
}
