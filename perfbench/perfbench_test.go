package main

// Smoke tests at tiny sizes: each workload passes its output checks, and a
// corrupted body, digest or final.json fails them, counted as failed
// operations that make the run incorrect.

import (
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

func flipFirstByte(b []byte) []byte {
	c := append([]byte(nil), b...)
	if len(c) == 0 {
		return []byte{0}
	}
	c[0] ^= 0xff
	return c
}

// window is long enough for at least one operation of every tiny workload.
func window() time.Time { return time.Now().Add(50 * time.Millisecond) }

func wantClean(t *testing.T, tl *tally) {
	t.Helper()
	if tl.attempted == 0 || tl.failed != 0 {
		t.Fatalf("attempted %d, failed %d (%v); want a clean run", tl.attempted, tl.failed, tl.problems)
	}
	if !(&report{tally: tl}).correct() {
		t.Fatal("a clean run reports incorrect")
	}
}

func wantCaught(t *testing.T, tl *tally) {
	t.Helper()
	if tl.failed == 0 {
		t.Fatalf("attempted %d, failed 0; want the corruption counted as failed operations", tl.attempted)
	}
	if (&report{tally: tl}).correct() {
		t.Fatal("a run with failed checks reports correct")
	}
}

func TestFiguresCheckCatchesCorruption(t *testing.T) {
	f := newFigures(1)
	f.ids = []string{"fig5a"}
	f.cfg.Trials = 1
	f.cfg.CallDuration = 2 * time.Second
	if err := f.setup(nil); err != nil {
		t.Fatal(err)
	}
	wantClean(t, f.run(window(), nil))
	f.corrupt = flipFirstByte
	wantCaught(t, f.run(window(), nil))
}

func TestFleetCheckCatchesCorruption(t *testing.T) {
	b := newFleet(1, t.TempDir(), 4, 2)
	if err := b.setup(nil); err != nil {
		t.Fatal(err)
	}
	wantClean(t, b.run(window(), nil))
	b.corrupt = flipFirstByte
	wantCaught(t, b.run(window(), nil))
}

func TestServeCheckCatchesCorruption(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts qoesimd")
	}
	bin := filepath.Join(t.TempDir(), "qoesimd")
	if out, err := exec.Command("go", "build", "-o", bin, "mobileqoe/cmd/qoesimd").CombinedOutput(); err != nil {
		t.Fatalf("build qoesimd: %v\n%s", err, out)
	}
	s := newServe(bin, 1)
	s.warmN = 1
	defer s.close()
	if err := s.setup(nil); err != nil {
		t.Fatal(err)
	}
	if err := s.warmOp(nil, 0, s.warmSet[0]); err != nil {
		t.Fatalf("clean warm request: %v", err)
	}
	s.corrupt = flipFirstByte
	if err := s.warmOp(nil, 0, s.warmSet[0]); err == nil {
		t.Fatal("a corrupted warm body passed the check")
	}
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
}

func TestSelfTimeSubtractsOverlappingChildren(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "runner.Run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "experiments.a", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "experiments.b", Start: 40, End: 90},
	}
	self := tr.selfTimes()
	if got, want := self["runner"], 20/1e6; got != want {
		t.Errorf("runner self time %g ms, want %g", got, want)
	}
	if got, want := self["experiments"], 100/1e6; got != want {
		t.Errorf("experiments self time %g ms, want %g", got, want)
	}
}
