package runlog

// Append-path crash-safety tests: the storage-fault injector drives the
// index append through disk-full and torn-write failures at every byte
// offset, and the assertions are the registry's durability contract —
// reopen plus fsck always recover a verifiable chain, losing at most
// the record whose append crashed.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mamps/internal/clock"
	"mamps/internal/runlog/faultio"
)

// TestAppendSelfHealsOnNoSpace injects a full-disk failure into one
// append: the failed append must not poison the index — the torn bytes
// are truncated away and the next append (space freed) succeeds, with
// the chain verifiable end to end.
func TestAppendSelfHealsOnNoSpace(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Append(testRecord("a", 0.1)); err != nil {
		t.Fatal(err)
	}

	// Fail the next append after 7 bytes reach the file (a torn write).
	r.testAppendFault = func(f *os.File, p []byte) (int, error) {
		w := &faultio.Writer{W: f, Budget: 7}
		return w.Write(p)
	}
	if _, err := r.Append(testRecord("b", 0.2)); err == nil {
		t.Fatal("append with failing writer succeeded")
	}
	r.testAppendFault = nil

	// The torn bytes were truncated: the next append lands cleanly.
	c, err := r.Append(testRecord("c", 0.3))
	if err != nil {
		t.Fatalf("append after self-heal: %v", err)
	}
	if r.Len() != 2 {
		t.Fatalf("Len=%d, want 2", r.Len())
	}
	rep, err := Fsck(dir, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Records != 2 {
		t.Fatalf("fsck after self-heal: %+v", rep)
	}
	// And the healed index survives a reopen.
	r.Close()
	r2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if _, ok := r2.Get(c.ID); !ok || r2.Len() != 2 {
		t.Fatalf("reopen after self-heal: len=%d", r2.Len())
	}
}

// fixedClock stamps every record with one instant. Its full nanosecond
// field keeps each timestamp at the width most wall-clock readings have;
// a reading with trailing zeros would shorten the line it stamps.
func fixedClock() clock.Clock {
	return clock.NewFake(time.Date(2026, 8, 6, 12, 0, 0, 123456789, time.UTC))
}

// TestAppendFaultEveryOffset is the torn-write matrix for the injected
// append path: for every byte budget from 0 to the full line length,
// the append fails (or, at full budget, the sync path completes), and
// the registry self-heals so a subsequent append and fsck both pass.
// Probe and subtests share a fixed clock (fixedClock), so the torn record
// is exactly as long as the probe's on every run.
func TestAppendFaultEveryOffset(t *testing.T) {
	probe, err := testLineLen(t)
	if err != nil {
		t.Fatal(err)
	}
	for budget := 0; budget < probe; budget++ {
		budget := budget
		t.Run(fmt.Sprintf("budget%03d", budget), func(t *testing.T) {
			dir := t.TempDir()
			r, err := Open(dir, Options{Clock: fixedClock()})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if _, err := r.Append(testRecord("a", 0.1)); err != nil {
				t.Fatal(err)
			}
			r.testAppendFault = func(f *os.File, p []byte) (int, error) {
				w := &faultio.Writer{W: f, Budget: budget}
				return w.Write(p)
			}
			if _, err := r.Append(testRecord("b", 0.2)); err == nil {
				t.Fatal("torn append reported success")
			}
			r.testAppendFault = nil
			if _, err := r.Append(testRecord("c", 0.3)); err != nil {
				t.Fatalf("append after torn write: %v", err)
			}
			rep, err := Fsck(dir, FsckOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() || rep.Records != 2 {
				t.Fatalf("fsck: %+v", rep)
			}
		})
	}
}

// testLineLen measures one appended index line so the torn-write matrix
// can cover every offset.
func testLineLen(t *testing.T) (int, error) {
	t.Helper()
	dir := t.TempDir()
	r, err := Open(dir, Options{Clock: fixedClock()})
	if err != nil {
		return 0, err
	}
	defer r.Close()
	if _, err := r.Append(testRecord("b", 0.2)); err != nil {
		return 0, err
	}
	data, err := os.ReadFile(filepath.Join(dir, indexName))
	if err != nil {
		return 0, err
	}
	return len(data), nil
}

// TestCrashTruncationEveryOffset simulates a crash that tears the final
// append at every byte offset of the last line: reopening must recover
// every record but (at most) the torn one, and fsck must verify the
// recovered chain. This is the tentpole's core durability matrix.
func TestCrashTruncationEveryOffset(t *testing.T) {
	golden := t.TempDir()
	// A fixed clock fixes the index bytes, and with them the subtest set.
	r, err := Open(golden, Options{Clock: fixedClock()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := r.Append(testRecord(fmt.Sprintf("app%d", i), 0.1*float64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	r.Close()
	intact, err := os.ReadFile(filepath.Join(golden, indexName))
	if err != nil {
		t.Fatal(err)
	}
	lastLineStart := bytes.LastIndexByte(intact[:len(intact)-1], '\n') + 1

	for cut := lastLineStart; cut < len(intact); cut++ {
		cut := cut
		t.Run(fmt.Sprintf("cut%04d", cut), func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, indexName), intact, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := faultio.TruncateAt(filepath.Join(dir, indexName), int64(cut)); err != nil {
				t.Fatal(err)
			}
			r, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("reopen after cut at %d: %v", cut, err)
			}
			n := r.Len()
			// At most the final record is lost; cut == len-1 only tears the
			// newline, so the record itself survives recovery.
			want := 2
			if cut == len(intact)-1 {
				want = 3
			}
			if n != want {
				r.Close()
				t.Fatalf("recovered %d records, want %d", n, want)
			}
			// The survivor chain must verify and stay appendable.
			if _, err := r.Append(testRecord("after", 0.9)); err != nil {
				r.Close()
				t.Fatal(err)
			}
			r.Close()
			rep, err := Fsck(dir, FsckOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() || rep.Records != want+1 {
				t.Fatalf("fsck: %+v", rep)
			}
		})
	}
}
