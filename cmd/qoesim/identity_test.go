package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mobileqoe/internal/engine"
)

var update = flag.Bool("update", false, "rewrite testdata/identity.txt")

const identityPath = "testdata/identity.txt"

// identityHeader opens identity.txt; the lines after it are "<name> <sha256>".
const identityHeader = `# Byte-identity manifest: SHA-256 of qoesim's deterministic outputs.
# A change that moves an output rewrites this file in its own commit with
#   go test ./cmd/qoesim -run TestIdentityManifest -update
`

// digests is an ordered list of named SHA-256 digests.
type digests struct{ lines []string }

func (d *digests) add(name string, data []byte) {
	sum := sha256.Sum256(data)
	d.lines = append(d.lines, name+" "+hex.EncodeToString(sum[:]))
}

// splitTables splits -run stdout at each "== <id> — <title> ==" header, so
// every experiment table gets its own digest named by its id.
func splitTables(t *testing.T, out string) (ids []string, tables []string) {
	t.Helper()
	for _, chunk := range strings.SplitAfter(out, "\n\n") {
		if chunk == "" {
			continue
		}
		id, ok := strings.CutPrefix(chunk, "== ")
		if !ok {
			t.Fatalf("stdout chunk is not a table:\n%s", chunk)
		}
		id, _, _ = strings.Cut(id, " ")
		ids = append(ids, id)
		tables = append(tables, chunk)
	}
	return ids, tables
}

// mustRun runs qoesim in-process and fails the test unless it exits want.
func mustRun(t *testing.T, want int, args ...string) string {
	t.Helper()
	code, stdout, stderr := runArgs(t, args...)
	if code != want {
		t.Fatalf("qoesim %v: exit %d, want %d\n%s", args, code, want, stderr)
	}
	return stdout
}

// TestIdentityManifest pins the north-star outputs by digest: a change that
// moves any of them fails here, naming the output (one line per experiment
// table of -run all), until identity.txt is rewritten with -update.
func TestIdentityManifest(t *testing.T) {
	if raceEnabled {
		t.Skip("identity manifest skipped under -race")
	}
	var d digests
	dir := t.TempDir()

	small := []string{"-run", "all", "-pages", "2", "-clip", "10s", "-call", "5s"}
	ids, tables := splitTables(t, mustRun(t, 0, small...))
	for i, id := range ids {
		d.add("run-all/"+id, []byte(tables[i]))
	}
	d.add("run-all.csv", []byte(mustRun(t, 0, append(small, "-csv")...)))
	d.add("run-all.metrics", []byte(mustRun(t, 0, append(small, "-metrics")...)))

	var traces [][]byte
	for _, par := range []string{"1", "2"} {
		out := filepath.Join(dir, "trace"+par+".json")
		mustRun(t, 0, "-run", "fig3a", "-pages", "1", "-trials", "2", "-parallel", par, "-trace", out)
		traces = append(traces, readFile(t, out))
	}
	if !bytes.Equal(traces[0], traces[1]) {
		t.Fatalf("combined trace differs between -parallel 1 (%d bytes) and 2 (%d bytes)", len(traces[0]), len(traces[1]))
	}
	d.add("fig3a.trace.json", traces[0])

	spec := filepath.Join("..", "..", "internal", "fleet", "testdata", "fleet_ci.json")
	whole, parts := filepath.Join(dir, "whole"), filepath.Join(dir, "parts")
	fleetOut := mustRun(t, exitOK, "-fleet", spec, "-checkpoint", whole)
	mustRun(t, exitInterrupted, "-fleet", spec, "-checkpoint", parts, "-fleet-shards", "12",
		"-parallel", "2", "-fleet-stop-after", "3")
	if resumed := mustRun(t, exitOK, "-fleet", spec, "-checkpoint", parts, "-resume", "-parallel", "2"); resumed != fleetOut {
		t.Fatalf("resumed 12-shard fleet stdout differs from the uninterrupted run:\n--- whole ---\n%s--- resumed ---\n%s", fleetOut, resumed)
	}
	final := readFile(t, filepath.Join(whole, "final.json"))
	if !bytes.Equal(final, readFile(t, filepath.Join(parts, "final.json"))) {
		t.Fatal("resumed 12-shard final.json differs from the uninterrupted run")
	}
	d.add("fleet_ci.stdout", []byte(fleetOut))
	d.add("fleet_ci.final.json", final)

	eng := engine.New(engine.Config{Tool: "identity"})
	defer eng.Close()
	served := func(req engine.Request) []byte {
		t.Helper()
		j, err := eng.Submit(req)
		if err == nil {
			err = j.Wait(context.Background())
		}
		if err != nil {
			t.Fatalf("served %+v: %v", req, err)
		}
		body, err := j.Output()
		if err != nil {
			t.Fatalf("served %+v: %v", req, err)
		}
		return body
	}
	d.add("served/fig3a", served(engine.Request{Experiment: "fig3a", Pages: 2, Trials: 2}))
	fleetBody := served(engine.Request{Fleet: json.RawMessage(readFile(t, spec))})
	if string(fleetBody) != fleetOut {
		t.Errorf("served fleet_ci body differs from -fleet stdout:\n--- cli ---\n%s--- served ---\n%s", fleetOut, fleetBody)
	}
	d.add("served/fleet_ci", fleetBody)

	got := identityHeader + strings.Join(d.lines, "\n") + "\n"
	if *update {
		if err := os.WriteFile(identityPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := map[string]string{}
	var order []string
	for _, line := range strings.Split(string(readFile(t, identityPath)), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, sum, _ := strings.Cut(line, " ")
		want[name] = sum
		order = append(order, name)
	}
	seen := map[string]bool{}
	for _, line := range d.lines {
		name, sum, _ := strings.Cut(line, " ")
		seen[name] = true
		switch w, ok := want[name]; {
		case !ok:
			t.Errorf("%s: new output, not in %s", name, identityPath)
		case w != sum:
			t.Errorf("%s: output moved (sha256 %s, manifest %s)", name, sum, w)
		}
	}
	for _, name := range order {
		if !seen[name] {
			t.Errorf("%s: in %s but no longer produced", name, identityPath)
		}
	}
	if t.Failed() {
		t.Log("if the move is intended, rewrite the manifest in its own commit: go test ./cmd/qoesim -run TestIdentityManifest -update")
	}
}
