package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"mobileqoe/internal/fleet"
	"mobileqoe/internal/runlog"
	"mobileqoe/internal/strictjson"
)

// readRunState decodes the checkpoint's run_state.json.
func readRunState(t *testing.T, ck string) fleet.RunState {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(ck, "run_state.json"))
	if err != nil {
		t.Fatal(err)
	}
	var st fleet.RunState
	if err := strictjson.Decode(data, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// writeFleetSpec writes a spec with the given population into dir and
// returns its path. Shards is left to overrides so the bytes — and the
// checkpoint-guarding SourceSHA256 — are identical across shardings.
func writeFleetSpec(t *testing.T, dir string, population int) string {
	t.Helper()
	spec := fmt.Sprintf(`{
		"name": "clitest",
		"population": %d,
		"seed": 5,
		"pages": 2,
		"device_mix": [{"device": "pixel2", "weight": 2}, {"device": "intex", "weight": 1}],
		"networks": [{"name": "lte", "weight": 1}],
		"workloads": [{"kind": "page", "weight": 3}, {"kind": "iperf", "weight": 1, "iperf_s": 1}],
		"fault_plans": [{"plan": "none", "weight": 1}]
	}`, population)
	path := filepath.Join(dir, "fleet.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFleetUsageErrors: -fleet takes its workloads, seeds and fault plans
// from the spec, so any flag outside its allowlist is a usage error that
// names the flag and creates no checkpoint.
func TestFleetUsageErrors(t *testing.T) {
	dir := t.TempDir()
	spec := writeFleetSpec(t, dir, 10)
	ck := filepath.Join(dir, "ck")
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-fleet", spec}, exitUsage, "-checkpoint"},
		{[]string{"-fleet", filepath.Join(dir, "nope.json"), "-checkpoint", ck}, exitUsage, "nope.json"},
		{[]string{"-fleet", spec, "-checkpoint", ck, "-fleet-shards", "99"}, exitUsage, "shards"},
		// Resuming a checkpoint that was never created is a runtime failure.
		{[]string{"-fleet", spec, "-checkpoint", ck, "-resume"}, exitFailed, ""},
		{[]string{"-fleet", spec, "-checkpoint", ck, "-fleet-shards", "2", "-seed", "9"}, exitUsage, "-seed"},
		{[]string{"-fleet", spec, "-checkpoint", ck, "-pages", "1"}, exitUsage, "-pages"},
		{[]string{"-fleet", spec, "-checkpoint", ck, "-metrics"}, exitUsage, "-metrics"},
		{[]string{"-fleet", spec, "-checkpoint", ck, "-run", "fig3a"}, exitUsage, "-run"},
		{[]string{"-run", "fig3a", "-checkpoint", ck}, exitUsage, "-checkpoint requires -fleet"},
	} {
		code, stdout, stderr := runArgs(t, tc.args...)
		if code != tc.code || stdout != "" || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: code=%d stdout=%q stderr=%q, want exit %d naming %q", tc.args, code, stdout, stderr, tc.code, tc.want)
		}
		if _, err := os.Stat(ck); !os.IsNotExist(err) {
			t.Fatalf("%v created the checkpoint directory", tc.args)
		}
	}
}

// TestFleetStopAfterResumeByteIdentical is the CLI-level kill/resume
// determinism check: interrupt via -fleet-stop-after (exit 3), resume (exit
// 0), and demand the resumed stdout and final.json match an uninterrupted
// single-shard run byte for byte.
func TestFleetStopAfterResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	spec := writeFleetSpec(t, dir, 30)

	ckBase := filepath.Join(dir, "ck-base")
	code, baseOut, stderr := runArgs(t, "-fleet", spec, "-checkpoint", ckBase, "-fleet-shards", "1", "-parallel", "1")
	if code != exitOK {
		t.Fatalf("baseline run: code=%d stderr=%s", code, stderr)
	}

	ck := filepath.Join(dir, "ck")
	code, _, stderr = runArgs(t, "-fleet", spec, "-checkpoint", ck, "-fleet-shards", "6", "-parallel", "1", "-fleet-stop-after", "2")
	if code != exitInterrupted {
		t.Fatalf("interrupted run: code=%d, want %d; stderr=%s", code, exitInterrupted, stderr)
	}
	if !strings.Contains(stderr, "-resume") {
		t.Errorf("interrupt stderr missing resume hint:\n%s", stderr)
	}
	st := readRunState(t, ck)
	if st.Status != "interrupted" || st.Completed != 2 {
		t.Fatalf("run state = %+v, want interrupted with 2 completed", st)
	}

	// Resume adopts the manifest's partition without -fleet-shards.
	code, resumedOut, stderr := runArgs(t, "-fleet", spec, "-checkpoint", ck, "-parallel", "2", "-resume")
	if code != exitOK {
		t.Fatalf("resume: code=%d stderr=%s", code, stderr)
	}
	if !strings.Contains(stderr, "2/6 shards restored") {
		t.Errorf("resume stderr missing restore banner:\n%s", stderr)
	}
	if resumedOut != baseOut {
		t.Errorf("resumed 6-shard stdout differs from 1-shard baseline:\n--- base ---\n%s--- resumed ---\n%s", baseOut, resumedOut)
	}
	baseFinal, err := os.ReadFile(filepath.Join(ckBase, "final.json"))
	if err != nil {
		t.Fatal(err)
	}
	final, err := os.ReadFile(filepath.Join(ck, "final.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(final, baseFinal) {
		t.Error("final.json differs between resumed 6-shard and uninterrupted 1-shard runs")
	}

	// A second resume restores everything and re-prints the same table. Its
	// run log, without -parallel, records the worker count that default
	// resolves to.
	logPath := filepath.Join(dir, "again.ndjson")
	code, againOut, _ := runArgs(t, "-fleet", spec, "-checkpoint", ck, "-resume", "-runlog", logPath)
	if code != exitOK || againOut != baseOut {
		t.Errorf("all-restored resume: code=%d, identical=%v", code, againOut == baseOut)
	}
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	c, err := runlog.Validate(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("resume run log: %v", err)
	}
	if c.Manifest.Parallel != runtime.GOMAXPROCS(0) {
		t.Errorf("manifest parallel = %d, want GOMAXPROCS %d", c.Manifest.Parallel, runtime.GOMAXPROCS(0))
	}
}

// TestFleetSIGINT sends a real SIGINT to the test process mid-run and holds
// the CLI to the interrupt contract: a distinct exit code, an interrupted
// run state with the completed shards durably checkpointed, and a run log
// in exactly the crash shape -truncated accepts (and strict mode refuses).
func TestFleetSIGINT(t *testing.T) {
	if testing.Short() {
		t.Skip("signal test with a multi-second fleet run")
	}
	dir := t.TempDir()
	// Big enough that the run is mid-flight for seconds; sharded finely so
	// the first checkpoint lands fast and the signal tears nothing.
	spec := writeFleetSpec(t, dir, 3000)
	ck := filepath.Join(dir, "ck")
	logPath := filepath.Join(dir, "run.ndjson")

	done := make(chan int, 1)
	go func() {
		code, _, _ := runArgs(t, "-fleet", spec, "-checkpoint", ck, "-fleet-shards", "100", "-parallel", "2", "-runlog", logPath)
		done <- code
	}()

	// Wait for the first durable shard, then interrupt the process.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if m, err := filepath.Glob(filepath.Join(ck, "shard_*.json")); err == nil && len(m) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no shard checkpoint appeared within 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	var code int
	select {
	case code = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("fleet did not exit within 30s of SIGINT")
	}
	if code != exitInterrupted {
		t.Fatalf("exit code %d, want %d (distinct from failure=%d and ok=%d)", code, exitInterrupted, exitFailed, exitOK)
	}

	st := readRunState(t, ck)
	if st.Status != "interrupted" || st.Completed < 1 {
		t.Fatalf("run state = %+v, want interrupted with >=1 completed shard", st)
	}
	shards, err := filepath.Glob(filepath.Join(ck, "shard_*.json"))
	if err != nil || len(shards) != st.Completed {
		t.Fatalf("%d shard files on disk, state says %d completed", len(shards), st.Completed)
	}

	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runlog.Validate(bytes.NewReader(data)); err == nil {
		t.Fatal("strict Validate accepted the interrupted run's log")
	}
	c, err := runlog.ValidateTruncated(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ValidateTruncated: %v", err)
	}
	if c.HasSummary {
		t.Fatal("interrupted log has a closing summary; it must stay crash-shaped")
	}
	if c.LastOK == nil {
		t.Fatal("no healthy cell recorded before the interrupt")
	}

	// And the run is resumable to the byte-identical answer.
	code, resumedOut, stderr := runArgs(t, "-fleet", spec, "-checkpoint", ck, "-parallel", "4", "-resume")
	if code != exitOK {
		t.Fatalf("resume after SIGINT: code=%d stderr=%s", code, stderr)
	}
	ckBase := filepath.Join(dir, "ck-base")
	code, baseOut, _ := runArgs(t, "-fleet", spec, "-checkpoint", ckBase, "-fleet-shards", "100", "-parallel", "4")
	if code != exitOK {
		t.Fatalf("baseline after SIGINT: code=%d", code)
	}
	if resumedOut != baseOut {
		t.Error("post-SIGINT resumed table differs from an uninterrupted run")
	}
}
