package runlog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mamps/internal/runlog/faultio"
)

// TestFsckClean: a freshly written registry verifies end to end.
func TestFsckClean(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := r.Append(testRecord(fmt.Sprintf("app%d", i), 0.1),
			Artifact{Name: "trace.json", Data: []byte(fmt.Sprintf("trace-%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	r.Close()
	rep, err := Fsck(dir, FsckOptions{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Records != 3 || rep.Chained != 3 || rep.Legacy != 0 || rep.Blobs != 3 {
		t.Fatalf("fsck: %+v", rep)
	}
	if rep.Root == "" || len(rep.Warnings) != 0 {
		t.Fatalf("fsck: %+v", rep)
	}
}

// TestFsckDetectsEveryIndexByteFlip is the tamper-evidence matrix: flip
// every single byte of the index in turn and fsck must report a
// problem, with the verified prefix ending exactly at the damaged line.
func TestFsckDetectsEveryIndexByteFlip(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := r.Append(testRecord(fmt.Sprintf("app%d", i), 0.1*float64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	r.Close()
	path := filepath.Join(dir, indexName)
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for off := 0; off < len(intact); off++ {
		if err := faultio.FlipByte(path, int64(off)); err != nil {
			t.Fatal(err)
		}
		rep, err := Fsck(dir, FsckOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.OK() {
			t.Fatalf("flip at byte %d went undetected", off)
		}
		// Records on lines before the flipped byte still verify; nothing
		// at or after the damaged line does.
		if want := bytes.Count(intact[:off], []byte("\n")); rep.Records != want {
			t.Fatalf("flip at byte %d: %d records verified, want %d (problems: %v)",
				off, rep.Records, want, rep.Problems)
		}
		if err := faultio.FlipByte(path, int64(off)); err != nil { // restore
			t.Fatal(err)
		}
	}
	// The restoration loop left the index intact.
	if rep, err := Fsck(dir, FsckOptions{}); err != nil || !rep.OK() {
		t.Fatalf("index damaged by flip/restore loop: %+v %v", rep, err)
	}
}

// TestFsckNamesAndRepairsCorruptBlob: a flipped blob byte is reported
// under the blob's digest; -repair quarantines the blob, after which
// fsck is clean by default (the dangling reference is a warning) and
// fails only under -strict.
func TestFsckNamesAndRepairsCorruptBlob(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := r.Append(testRecord("a", 0.1), Artifact{Name: "trace.json", Data: []byte("the trace")})
	if err != nil {
		t.Fatal(err)
	}
	digest, _ := rec.ArtifactBlobs.Get("trace.json")
	blobPath, err := r.blobs.Path(digest)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	if err := faultio.FlipByte(blobPath, 2); err != nil {
		t.Fatal(err)
	}

	rep, err := Fsck(dir, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || len(rep.Problems) != 1 || rep.Problems[0].Kind != "blob-corrupt" || rep.Problems[0].Blob != digest {
		t.Fatalf("fsck: %+v", rep)
	}

	rep, err = Fsck(dir, FsckOptions{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Repaired || rep.QuarantinedBlobs != 1 {
		t.Fatalf("repair: %+v", rep)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDirName, "blobs", digest)); err != nil {
		t.Fatalf("quarantined blob missing: %v", err)
	}

	rep, err = Fsck(dir, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("post-repair fsck not clean: %+v", rep)
	}
	found := false
	for _, w := range rep.Warnings {
		if w.Kind == "blob-missing" && w.RecordID == rec.ID && w.Blob == digest {
			found = true
		}
	}
	if !found {
		t.Fatalf("dangling reference not warned: %+v", rep.Warnings)
	}
	if rep, err := Fsck(dir, FsckOptions{Strict: true}); err != nil || rep.OK() {
		t.Fatalf("strict fsck passed with missing blob: %+v %v", rep, err)
	}
}

// TestFsckRepairQuarantinesDamagedTail: a chain break mid-index sends
// the damaged record and everything after it to quarantine, the
// verified prefix is rewritten, and the registry reopens and appends.
func TestFsckRepairQuarantinesDamagedTail(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := r.Append(testRecord(fmt.Sprintf("app%d", i), 0.1)); err != nil {
			t.Fatal(err)
		}
	}
	r.Close()
	path := filepath.Join(dir, indexName)
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a content byte early in line 2 (inside its JSON, after the
	// first newline).
	off := int64(bytes.IndexByte(intact, '\n') + 10)
	if err := faultio.FlipByte(path, off); err != nil {
		t.Fatal(err)
	}

	// Open refuses the broken chain and points at the repair tool.
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a broken chain")
	}

	rep, err := Fsck(dir, FsckOptions{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Repaired || rep.Records != 1 || rep.QuarantinedLines != 2 {
		t.Fatalf("repair: %+v", rep)
	}
	q, err := os.ReadFile(filepath.Join(dir, quarantineDirName, "index.damaged.jsonl"))
	if err != nil || bytes.Count(q, []byte("\n")) != 2 {
		t.Fatalf("quarantine file: %q %v", q, err)
	}

	rep, err = Fsck(dir, FsckOptions{Strict: true})
	if err != nil || !rep.OK() || rep.Records != 1 {
		t.Fatalf("post-repair fsck: %+v %v", rep, err)
	}
	r2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if _, err := r2.Append(testRecord("after", 0.5)); err != nil {
		t.Fatal(err)
	}
	if r2.Len() != 2 {
		t.Fatalf("Len=%d, want 2", r2.Len())
	}
}

// legacyIndex writes a pre-ledger (chainless) index of n records and
// returns the directory — the migration fixture.
func legacyIndex(t *testing.T, n int) string {
	t.Helper()
	dir := t.TempDir()
	var buf bytes.Buffer
	for i := 1; i <= n; i++ {
		rec := testRecord(fmt.Sprintf("app%d", i), 0.1*float64(i))
		rec.ID = fmt.Sprintf("r%06d-nokey", i)
		rec.Seq = int64(i)
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(line, '\n'))
	}
	if err := os.WriteFile(filepath.Join(dir, indexName), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestLegacyMigration is the versioned-migration acceptance test:
// pre-ledger records open fine and are adopted into the chain by fsck
// -repair, after which tampering is detected exactly like native
// chained records.
func TestLegacyMigration(t *testing.T) {
	dir := legacyIndex(t, 2)

	// Open tolerates the legacy index and chains new appends onto it.
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.legacy != 2 {
		t.Fatalf("legacy=%d, want 2", r.legacy)
	}
	if _, err := r.Append(testRecord("new", 0.9)); err != nil {
		t.Fatal(err)
	}
	r.Close()

	rep, err := Fsck(dir, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Legacy != 2 || rep.Chained != 1 {
		t.Fatalf("fsck of mixed index: %+v", rep)
	}

	// Repair adopts the legacy records on disk.
	rep, err = Fsck(dir, FsckOptions{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Repaired || rep.Adopted != 2 {
		t.Fatalf("repair: %+v", rep)
	}
	rep, err = Fsck(dir, FsckOptions{})
	if err != nil || !rep.OK() || rep.Chained != 3 || rep.Legacy != 0 {
		t.Fatalf("post-adoption fsck: %+v %v", rep, err)
	}

	// Adopted records are now tamper-evident byte by byte.
	path := filepath.Join(dir, indexName)
	if err := faultio.FlipByte(path, 10); err != nil {
		t.Fatal(err)
	}
	if rep, err := Fsck(dir, FsckOptions{}); err != nil || rep.OK() {
		t.Fatalf("flip in adopted record undetected: %+v %v", rep, err)
	}
}

// TestGCAdoptsLegacy: the automatic half of the migration — any GC pass
// rewrites the index fully chained.
func TestGCAdoptsLegacy(t *testing.T) {
	dir := legacyIndex(t, 2)
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.GC(); err != nil {
		t.Fatal(err)
	}
	if r.legacy != 0 {
		t.Fatalf("legacy=%d after GC, want 0", r.legacy)
	}
	r.Close()
	rep, err := Fsck(dir, FsckOptions{})
	if err != nil || !rep.OK() || rep.Chained != 2 || rep.Legacy != 0 {
		t.Fatalf("fsck after GC adoption: %+v %v", rep, err)
	}
}

// TestLegacyAnalyzeWorkersRecord: records written before a field's
// removal still carry it — "analyzeWorkers" from when requests could
// choose the state-space parallelism, "warmScaled" and "warmHint" from
// the analysis memo's scaled-WCET and hint tiers, "traceRetained" from
// the tail-based trace retention policy. Such fields are kept read-only
// so the index still opens, verifies, and re-marshals to the exact
// bytes the ledger hashed.
func TestLegacyAnalyzeWorkersRecord(t *testing.T) {
	cases := []struct {
		field  string
		set    func(*Record)
		stored func(Record) bool
	}{
		{`"analyzeWorkers":4`,
			func(r *Record) { r.Config.AnalyzeWorkers = 4 },
			func(r Record) bool { return r.Config.AnalyzeWorkers == 4 }},
		{`"warmScaled":1`,
			func(r *Record) { r.Counters.WarmScaled = 1 },
			func(r Record) bool { return r.Counters.WarmScaled == 1 }},
		{`"warmHint":2`,
			func(r *Record) { r.Counters.WarmHint = 2 },
			func(r Record) bool { return r.Counters.WarmHint == 2 }},
		{`"traceRetained":"slow"`,
			func(r *Record) { r.TraceRetained = "slow" },
			func(r Record) bool { return r.TraceRetained == "slow" }},
	}
	for _, tc := range cases {
		t.Run(tc.field, func(t *testing.T) {
			dir := t.TempDir()
			r, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			rec := testRecord("legacy", 0.25)
			tc.set(&rec)
			stored, err := r.Append(rec)
			if err != nil {
				t.Fatal(err)
			}
			r.Close()

			index, err := os.ReadFile(filepath.Join(dir, indexName))
			if err != nil {
				t.Fatal(err)
			}
			line := bytes.TrimSuffix(index, []byte("\n"))
			if !bytes.Contains(line, []byte(tc.field)) {
				t.Fatalf("fixture lacks the legacy field: %s", line)
			}

			r, err = Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			got, ok := r.Get(stored.ID)
			if !ok || !tc.stored(got) {
				t.Fatalf("reopened record = %+v, %v", got, ok)
			}
			again, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, line) {
				t.Fatalf("re-marshal differs:\n got %s\nwant %s", again, line)
			}
			rep, err := Fsck(dir, FsckOptions{Strict: true})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() || rep.Chained != 1 || len(rep.Warnings) != 0 {
				t.Fatalf("fsck: %+v", rep)
			}
		})
	}
}

// TestFsckNormalizesTornNewline: a final record that lost only its
// newline verifies with a warning, and repair rewrites it terminated.
func TestFsckNormalizesTornNewline(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r.Append(testRecord("a", 0.1))
	r.Append(testRecord("b", 0.2))
	r.Close()
	path := filepath.Join(dir, indexName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultio.TruncateAt(path, int64(len(data)-1)); err != nil {
		t.Fatal(err)
	}

	rep, err := Fsck(dir, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Records != 2 || len(rep.Warnings) != 1 || rep.Warnings[0].Kind != "torn-newline" {
		t.Fatalf("fsck: %+v", rep)
	}
	if rep, err := Fsck(dir, FsckOptions{Repair: true}); err != nil || !rep.Repaired {
		t.Fatalf("repair: %+v %v", rep, err)
	}
	rep, err = Fsck(dir, FsckOptions{})
	if err != nil || !rep.OK() || len(rep.Warnings) != 0 || rep.Records != 2 {
		t.Fatalf("post-repair: %+v %v", rep, err)
	}
}

// TestFsckEmptyAndMissing: fsck of a missing or empty registry is clean
// with the empty-tree root.
func TestFsckEmptyAndMissing(t *testing.T) {
	rep, err := Fsck(t.TempDir(), FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Records != 0 || rep.Root == "" {
		t.Fatalf("fsck of empty dir: %+v", rep)
	}
}
