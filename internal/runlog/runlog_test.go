package runlog

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mamps/internal/clock"
	"mamps/internal/faults"
)

func testRecord(app string, bound float64) Record {
	return Record{
		Kind: "flow", App: app, GraphKey: "k-" + app, Outcome: "ok",
		Bound: bound, Cycles: 100,
		Counters: Counters{Analyses: 1, StatesExplored: 10, SimSteps: 50},
	}
}

func TestAppendGetList(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var ids []string
	for i := 0; i < 5; i++ {
		rec, err := r.Append(testRecord(fmt.Sprintf("app%d", i%2), 0.1*float64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		if rec.ID == "" || rec.Seq != int64(i+1) {
			t.Fatalf("Append assigned ID=%q Seq=%d, want non-empty ID and Seq %d", rec.ID, rec.Seq, i+1)
		}
		ids = append(ids, rec.ID)
	}
	got, ok := r.Get(ids[2])
	if !ok || got.App != "app0" {
		t.Fatalf("Get(%s) = %+v, %v", ids[2], got, ok)
	}

	// List is newest-first with paging and a pre-paging total.
	recs, total := r.List(Filter{}, 0, 2)
	if total != 5 || len(recs) != 2 || recs[0].ID != ids[4] || recs[1].ID != ids[3] {
		t.Fatalf("List page = %d/%d starting %s", len(recs), total, recs[0].ID)
	}
	recs, total = r.List(Filter{App: "app1"}, 0, 0)
	if total != 2 || len(recs) != 2 {
		t.Fatalf("List(app1) total = %d", total)
	}
	recs, _ = r.List(Filter{}, 4, 0)
	if len(recs) != 1 || recs[0].ID != ids[0] {
		t.Fatalf("List offset page wrong: %+v", recs)
	}
}

// TestListCopiesOnlyThePage: List counts matches in place and copies
// only the page it returns, so a one-record page costs the same
// allocations over a large index as over a small one. A page past the
// last match is empty but not nil (it encodes as [] on /v1/runs); no
// match at all gives nil.
func TestListCopiesOnlyThePage(t *testing.T) {
	allocs := func(n int) float64 {
		r, err := Open(t.TempDir(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		for i := 0; i < n; i++ {
			if _, err := r.Append(testRecord("app", 0.1)); err != nil {
				t.Fatal(err)
			}
		}
		if recs, total := r.List(Filter{}, n, 0); recs == nil || len(recs) != 0 || total != n {
			t.Fatalf("page past the end = %v (nil %v), total %d", recs, recs == nil, total)
		}
		if recs, total := r.List(Filter{App: "none"}, 0, 0); recs != nil || total != 0 {
			t.Fatalf("no match = %v, total %d", recs, total)
		}
		return testing.AllocsPerRun(20, func() {
			if recs, total := r.List(Filter{}, 0, 1); len(recs) != 1 || total != n {
				t.Fatalf("List(0, 1) = %d records of %d", len(recs), total)
			}
		})
	}
	if small, large := allocs(40), allocs(400); large != small {
		t.Fatalf("List(0, 1) allocations grow with the index: %v at 40 records, %v at 400", small, large)
	}
}

func TestReopenRecoversIndex(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := r.Append(testRecord("a", 0.1))
	b, _ := r.Append(testRecord("b", 0.2))
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Len() != 2 {
		t.Fatalf("reopened Len = %d, want 2", r2.Len())
	}
	if _, ok := r2.Get(a.ID); !ok {
		t.Errorf("run %s lost on reopen", a.ID)
	}
	// Sequence numbering continues after the recovered maximum.
	c, err := r2.Append(testRecord("c", 0.3))
	if err != nil {
		t.Fatal(err)
	}
	if c.Seq != b.Seq+1 {
		t.Errorf("Seq after reopen = %d, want %d", c.Seq, b.Seq+1)
	}
}

func TestTruncatedTailRecovery(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r.Append(testRecord("a", 0.1))
	r.Append(testRecord("b", 0.2))
	r.Close()
	path := filepath.Join(dir, "index.jsonl")
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("garbage tail truncated", func(t *testing.T) {
		// A crash mid-append leaves half a JSON object with no newline.
		damaged := append(append([]byte{}, intact...), `{"id":"r0000`...)
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if r.Len() != 2 {
			t.Fatalf("Len after recovery = %d, want 2", r.Len())
		}
		// The file itself was repaired: the fragment is gone.
		data, _ := os.ReadFile(path)
		if string(data) != string(intact) {
			t.Errorf("index not truncated back to the last intact line:\n%q", data)
		}
	})

	t.Run("unterminated final line kept", func(t *testing.T) {
		// A crash between write and the newline of a complete record: the
		// line parses, so it is kept and the newline restored.
		noNL := append([]byte{}, intact...)
		noNL = noNL[:len(noNL)-1]
		if err := os.WriteFile(path, noNL, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if r.Len() != 2 {
			t.Fatalf("Len after newline repair = %d, want 2", r.Len())
		}
		data, _ := os.ReadFile(path)
		if string(data) != string(intact) {
			t.Errorf("lost newline not restored")
		}
	})

	t.Run("garbled middle drops the suspect tail", func(t *testing.T) {
		lines := strings.SplitAfter(string(intact), "\n")
		damaged := lines[0] + "NOT JSON\n" + lines[1]
		if err := os.WriteFile(path, []byte(damaged), 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if r.Len() != 1 {
			t.Fatalf("Len after mid-file damage = %d, want 1", r.Len())
		}
	})
}

func TestConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 10
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := r.Append(testRecord(fmt.Sprintf("w%d", w), 0.1)); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}(w)
	}
	// Concurrent readers race the writers (the -race run is the point).
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r.List(Filter{}, 0, 5)
				r.Len()
			}
		}()
	}
	wg.Wait()
	if r.Len() != writers*each {
		t.Fatalf("Len = %d, want %d", r.Len(), writers*each)
	}
	r.Close()

	// Every record survived durably, with unique IDs.
	r2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Len() != writers*each {
		t.Fatalf("reopened Len = %d, want %d", r2.Len(), writers*each)
	}
}

func TestArtifacts(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rec, err := r.Append(testRecord("a", 0.1),
		Artifact{Name: "trace.json", Data: []byte(`{"traceEvents":[]}`)},
		Artifact{Name: "../escape.txt", Data: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Artifacts) != 2 {
		t.Fatalf("Artifacts = %v", rec.Artifacts)
	}
	p, err := r.ArtifactPath(rec.ID, "trace.json")
	if err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(p); err != nil || string(data) != `{"traceEvents":[]}` {
		t.Fatalf("artifact content = %q, %v", data, err)
	}
	// Path traversal in the name was neutralized to its base name.
	if _, err := os.Stat(filepath.Join(dir, "escape.txt")); !os.IsNotExist(err) {
		t.Error("artifact escaped the run directory")
	}
	if _, err := r.ArtifactPath(rec.ID, "escape.txt"); err != nil {
		t.Errorf("sanitized artifact not listed: %v", err)
	}
	if _, err := r.ArtifactPath(rec.ID, "nothere"); err == nil {
		t.Error("ArtifactPath for unknown artifact did not fail")
	}
}

func TestBaselineRegressionOnIngest(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	first, err := r.Append(testRecord("a", 0.2))
	if err != nil {
		t.Fatal(err)
	}
	if first.Regression != nil {
		t.Fatal("run before any baseline carries a Regression")
	}
	if _, err := r.SetBaseline(first.ID); err != nil {
		t.Fatal(err)
	}

	// Identical rerun: compared, not regressed.
	same, err := r.Append(testRecord("a", 0.2))
	if err != nil {
		t.Fatal(err)
	}
	if same.Regression == nil || same.Regression.Regressed {
		t.Fatalf("identical rerun = %+v, want compared and clean", same.Regression)
	}

	// Drifted bound: regressed, counter incremented, tagged with a reason.
	bad := testRecord("a", 0.15)
	drifted, err := r.Append(bad)
	if err != nil {
		t.Fatal(err)
	}
	if drifted.Regression == nil || !drifted.Regression.Regressed {
		t.Fatalf("drifted run not tagged: %+v", drifted.Regression)
	}
	if len(drifted.Regression.Reasons) == 0 || !strings.Contains(drifted.Regression.Reasons[0], "bound") {
		t.Errorf("Reasons = %v", drifted.Regression.Reasons)
	}
	if r.Regressions() != 1 {
		t.Errorf("Regressions = %d, want 1", r.Regressions())
	}

	// Regressed filter finds exactly the tagged run.
	recs, total := r.List(Filter{Regressed: true}, 0, 0)
	if total != 1 || recs[0].ID != drifted.ID {
		t.Errorf("List(Regressed) = %d records", total)
	}
}

func TestBaselineSurvivesReopenAndTolerances(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := testRecord("a", 0.2)
	base.Corpus = "entry" // baseline-matched by corpus name
	if err := r.ImportBaseline(base); err != nil {
		t.Fatal(err)
	}
	r.Close()

	r2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if _, ok := r2.Baseline("corpus/entry"); !ok {
		t.Fatal("baseline lost on reopen")
	}
	// The detector compares exactly: a 25% drift is a regression, with
	// the reason text stored records have always carried.
	in := testRecord("a", 0.15)
	in.Corpus = "entry"
	rec, err := r2.Append(in)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Regression == nil || !rec.Regression.Regressed {
		t.Fatalf("25%% drift not flagged: %+v", rec.Regression)
	}
	want := "throughput bound drifted -25% (0.2 -> 0.15, tolerance 0%)"
	if len(rec.Regression.Reasons) == 0 || rec.Regression.Reasons[0] != want {
		t.Fatalf("reasons = %q, want first %q", rec.Regression.Reasons, want)
	}
}

func TestGCRetention(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewFake(time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC))
	r, err := Open(dir, Options{Clock: clk, MaxAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	old, err := r.Append(testRecord("old", 0.1), Artifact{Name: "trace.json", Data: []byte("{}")})
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Hour)
	fresh, err := r.Append(testRecord("fresh", 0.2))
	if err != nil {
		t.Fatal(err)
	}
	// An orphan artifact directory, as left by a crash between artifact
	// write and index append.
	orphan := filepath.Join(dir, "runs", "r999999-dead")
	os.MkdirAll(orphan, 0o755)

	n, err := r.GC()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("GC removed %d, want 1", n)
	}
	if _, ok := r.Get(old.ID); ok {
		t.Error("expired record still present")
	}
	if _, ok := r.Get(fresh.ID); !ok {
		t.Error("fresh record dropped")
	}
	if _, err := os.Stat(filepath.Join(dir, "runs", old.ID)); !os.IsNotExist(err) {
		t.Error("expired artifact directory not removed")
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Error("orphan artifact directory not swept")
	}

	// The registry still appends durably after the atomic index rewrite.
	if _, err := r.Append(testRecord("after", 0.3)); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r2, err := Open(dir, Options{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Len() != 2 {
		t.Fatalf("Len after GC+append+reopen = %d, want 2", r2.Len())
	}
}

func TestGCMaxRecordsOnAppend(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, Options{MaxRecords: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 6; i++ {
		if _, err := r.Append(testRecord(fmt.Sprintf("a%d", i), 0.1)); err != nil {
			t.Fatal(err)
		}
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (MaxRecords)", r.Len())
	}
	recs, _ := r.List(Filter{}, 0, 0)
	if recs[len(recs)-1].App != "a3" {
		t.Errorf("oldest kept = %s, want a3", recs[len(recs)-1].App)
	}
}

func TestCompareAndDiff(t *testing.T) {
	a := testRecord("a", 0.2)
	a.ID = "ra"
	a.Steps = []StageTime{{Name: "SDF3", Automated: true, Micros: 100}}
	b := testRecord("a", 0.1)
	b.ID = "rb"
	b.Cycles = 200
	b.Steps = []StageTime{{Name: "SDF3", Automated: true, Micros: 150}}
	d := Compare(&a, &b)
	if !d.Bound.Changed() || d.Bound.Rel != -0.5 {
		t.Errorf("Bound delta = %+v", d.Bound)
	}
	if !d.Cycles.Changed() {
		t.Error("Cycles change missed")
	}
	if d.StatesExplored.Changed() {
		t.Error("equal StatesExplored flagged")
	}
	if len(d.Stages) != 1 || d.Stages[0].Ratio != 1.5 {
		t.Errorf("Stages = %+v", d.Stages)
	}
	// The record (with its Regression) round-trips through JSON.
	b.Regression = &Regression{BaselineKey: "graph/k-a", Regressed: true, Diff: &d}
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	var back Record
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Regression.Regressed || back.Regression.Diff.Bound.Rel != -0.5 {
		t.Errorf("round-trip lost regression data: %+v", back.Regression)
	}
}

func TestValidID(t *testing.T) {
	valid := []string{"r000001-nokey", "r000001-abcd1234", "r123456-00ff"}
	for _, id := range valid {
		if !ValidID(id) {
			t.Errorf("ValidID(%q) = false", id)
		}
	}
	invalid := []string{
		"", "r", "abc", "r000001", "r000001-", "r1-abcd",
		"r000001-ABCD",                       // uppercase key
		"r000001-ab/cd",                      // separator
		"r000001-..",                         // dots
		"../r000001-abcd",                    // traversal prefix
		"r000001-abcd/../../x",               // traversal suffix
		"r000001-abcd%2F..",                  // encoded separator (decoded by ServeMux)
		"r000001-abcd\x00",                   // NUL
		"r00000000000000000001-abcd",         // seq too long
		"r000001-" + strings.Repeat("a", 90), // over length cap
	}
	for _, id := range invalid {
		if ValidID(id) {
			t.Errorf("ValidID(%q) = true", id)
		}
	}
	// Every ID the registry mints must validate.
	r, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rec, err := r.Append(testRecord("some-app", 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if !ValidID(rec.ID) {
		t.Errorf("minted ID %q fails ValidID", rec.ID)
	}
}

// TestProveAndRoot: every appended record gets a proof that verifies
// against the advertised root, the proof's leaf is the record's chain
// hash, and both survive reopen and GC (which re-anchors the chain).
func TestProveAndRoot(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for i := 0; i < 5; i++ {
		rec, err := r.Append(testRecord(fmt.Sprintf("app%d", i), 0.1*float64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	root := r.Root()
	if root == "" {
		t.Fatal("empty root")
	}
	for _, rec := range recs {
		p, err := r.Prove(rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		if p.RunID != rec.ID || p.Proof.Leaf != rec.RecordHash || p.Proof.Root != root {
			t.Fatalf("proof fields: %+v vs record %+v root %s", p, rec, root)
		}
		if err := p.Proof.Verify(); err != nil {
			t.Fatalf("proof for %s: %v", rec.ID, err)
		}
	}
	if _, err := r.Prove("r999999-nosuch"); err == nil {
		t.Error("Prove of unknown run succeeded")
	}
	r.Close()

	// Reopen reproduces the identical root (the chain is deterministic).
	r2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.Root(); got != root {
		t.Fatalf("root after reopen %s != %s", got, root)
	}
	// fsck agrees with the registry's own root.
	r2.Close()
	rep, err := Fsck(dir, FsckOptions{})
	if err != nil || rep.Root != root {
		t.Fatalf("fsck root %s != %s (%v)", rep.Root, root, err)
	}
	r2, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()

	// GC drops the two oldest records and re-anchors: proofs still
	// verify against the new root.
	r2.opt.MaxRecords = 3
	if _, err := r2.GC(); err != nil {
		t.Fatal(err)
	}
	newRoot := r2.Root()
	if newRoot == root {
		t.Fatal("root unchanged after GC dropped records")
	}
	p, err := r2.Prove(recs[4].ID)
	if err != nil {
		t.Fatal(err)
	}
	if p.Proof.Root != newRoot {
		t.Fatalf("proof root %s != %s", p.Proof.Root, newRoot)
	}
	if err := p.Proof.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestArtifactDedupAcrossRuns: identical artifact bytes in different
// runs share one blob, and each run still reads its own copy back.
func TestArtifactDedupAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	payload := []byte(`{"traceEvents":["shared"]}`)
	a, err := r.Append(testRecord("a", 0.1), Artifact{Name: "trace.json", Data: payload})
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Append(testRecord("b", 0.2), Artifact{Name: "trace.json", Data: payload})
	if err != nil {
		t.Fatal(err)
	}
	da, _ := a.ArtifactBlobs.Get("trace.json")
	db, _ := b.ArtifactBlobs.Get("trace.json")
	if da != db {
		t.Fatalf("identical artifacts not deduplicated: %v %v", a.ArtifactBlobs, b.ArtifactBlobs)
	}
	digests, _, err := r.blobs.List()
	if err != nil || len(digests) != 1 {
		t.Fatalf("blob count = %d (%v)", len(digests), err)
	}
	for _, id := range []string{a.ID, b.ID} {
		data, err := r.ReadArtifact(id, "trace.json")
		if err != nil || !bytes.Equal(data, payload) {
			t.Fatalf("ReadArtifact(%s): %q %v", id, data, err)
		}
	}
	// GC with both runs live keeps the shared blob; dropping both drops it.
	if _, err := r.GC(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadArtifact(a.ID, "trace.json"); err != nil {
		t.Fatalf("shared blob lost by GC: %v", err)
	}
}

// timedRecord is a flow record with one stage of the given wall time
// and a trace artifact attached by the caller.
func timedRecord(graphKey, outcome string, micros float64) Record {
	return Record{
		Kind: "flow", App: "mjpeg", GraphKey: graphKey, Outcome: outcome,
		Bound: 0.01,
		Steps: []StageTime{{Name: "Executing on platform", Micros: micros}},
	}
}

func traceArt() Artifact { return Artifact{Name: "trace.json", Data: []byte(`{"traceEvents":[]}`)} }

// TestRetentionOffKeepsEverything pins that Append stores every trace
// artifact it is given: the registry has no trace retention policy, and
// nothing sets the read-only TraceRetained field.
func TestRetentionOffKeepsEverything(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rec, err := r.Append(timedRecord("gkey", "ok", 10), traceArt())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Artifacts) != 1 || rec.TraceRetained != "" {
		t.Fatalf("Append altered artifacts: %+v", rec)
	}
	if _, err := r.ReadArtifact(rec.ID, "trace.json"); err != nil {
		t.Fatalf("trace not stored: %v", err)
	}
}

// TestFilterDegradedAndUntil covers the filter parity fields backing
// `mamps-runs list` and GET /v1/runs.
func TestFilterDegradedAndUntil(t *testing.T) {
	clk := &clock.Fake{}
	r, err := Open(t.TempDir(), Options{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var times []time.Time
	for i, outcome := range []string{"ok", "degraded", "ok"} {
		clk.Advance(time.Hour)
		rec, err := r.Append(timedRecord("gkey", outcome, float64(100*(i+1))))
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, rec.Time)
	}

	recs, total := r.List(Filter{Degraded: true}, 0, 0)
	if total != 1 || recs[0].Outcome != "degraded" {
		t.Fatalf("Degraded filter = %d matches: %+v", total, recs)
	}
	if _, total = r.List(Filter{Until: times[1]}, 0, 0); total != 1 {
		t.Errorf("Until (exclusive) = %d matches, want 1", total)
	}
	if _, total = r.List(Filter{Since: times[1], Until: times[2]}, 0, 0); total != 1 {
		t.Errorf("window = %d matches, want 1", total)
	}
}

// TestFilterMatch is a table over every Filter predicate: the one record
// selector behind List, the run-lake aggregation, /v1/runs, /v1/stats
// and `mamps-runs list` and `stats`.
func TestFilterMatch(t *testing.T) {
	t0 := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	recs := []Record{
		{Kind: "flow", App: "mjpeg", GraphKey: "aaaa", BaselineKey: "graph/aaaa", Outcome: "ok", Time: t0},
		{Kind: "flow", App: "mjpeg", GraphKey: "bbbb", Outcome: "degraded", Time: t0.Add(time.Hour),
			Config: ConfigSummary{Faults: &faults.Spec{Seed: 1}}, Regression: &Regression{Regressed: true}},
		{Kind: "dse", App: "other", GraphKey: "cccc", Corpus: "fig2", Outcome: "deadlock", Time: t0.Add(2 * time.Hour),
			Regression: &Regression{}},
	}
	cases := []struct {
		name string
		f    Filter
		want []int // indexes into recs
	}{
		{"all", Filter{}, []int{0, 1, 2}},
		{"app", Filter{App: "mjpeg"}, []int{0, 1}},
		{"kind", Filter{Kind: "dse"}, []int{2}},
		{"graph key prefix", Filter{GraphKey: "bb"}, []int{1}},
		{"graph key exact", Filter{GraphKey: "cccc"}, []int{2}},
		{"baseline key", Filter{BaselineKey: "graph/aaaa"}, []int{0}},
		{"baseline key is exact", Filter{BaselineKey: "graph/"}, nil},
		{"corpus", Filter{Corpus: "fig2"}, []int{2}},
		{"regressed", Filter{Regressed: true}, []int{1}},
		{"degraded", Filter{Degraded: true}, []int{1}},
		{"deadlocked", Filter{Deadlocked: true}, []int{2}},
		{"faulted", Filter{Faulted: true}, []int{1}},
		{"since", Filter{Since: t0.Add(30 * time.Minute)}, []int{1, 2}},
		{"until", Filter{Until: t0.Add(30 * time.Minute)}, []int{0}},
		{"until is exclusive", Filter{Until: t0.Add(time.Hour)}, []int{0}},
		{"window", Filter{Since: t0.Add(30 * time.Minute), Until: t0.Add(90 * time.Minute)}, []int{1}},
		{"conjunction", Filter{App: "mjpeg", Degraded: true, Faulted: true}, []int{1}},
		{"disjoint", Filter{Kind: "dse", Degraded: true}, nil},
	}
	for _, tc := range cases {
		var got []int
		for i := range recs {
			if tc.f.Match(&recs[i]) {
				got = append(got, i)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: matched %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestFilterFlags: the filter's flag set names every field as its query
// parameter and parses booleans and RFC 3339 times.
func TestFilterFlags(t *testing.T) {
	var f Filter
	fs := f.Flags()
	for name, v := range map[string]string{
		"app": "mjpeg", "kind": "flow", "graphKey": "ab", "baselineKey": "graph/ab", "corpus": "fig2",
		"regressed": "true", "degraded": "1", "deadlocked": "t", "faulted": "TRUE",
		"since": "2026-08-01T12:00:00Z", "until": "2026-08-02T12:00:00Z",
	} {
		if err := fs.Set(name, v); err != nil {
			t.Fatalf("Set(%s, %q): %v", name, v, err)
		}
	}
	want := Filter{
		App: "mjpeg", Kind: "flow", GraphKey: "ab", BaselineKey: "graph/ab", Corpus: "fig2",
		Regressed: true, Degraded: true, Deadlocked: true, Faulted: true,
		Since: time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC),
		Until: time.Date(2026, 8, 2, 12, 0, 0, 0, time.UTC),
	}
	if f != want {
		t.Fatalf("filter = %+v, want %+v", f, want)
	}
	if err := fs.Set("since", ""); err != nil || !f.Since.IsZero() {
		t.Errorf("empty since: %v, %v; want the bound cleared", f.Since, err)
	}
	for name, v := range map[string]string{"degraded": "maybe", "until": "yesterday"} {
		if err := fs.Set(name, v); err == nil {
			t.Errorf("Set(%s, %q) accepted", name, v)
		}
	}
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if fields := reflect.TypeOf(f).NumField(); n != fields {
		t.Errorf("%d flags, want one per Filter field (%d)", n, fields)
	}
}

// TestBlobRefsMarshalLikeMap: BlobRefs reads and writes the JSON object
// the map[string]string it replaced did, so stored records re-marshal to
// the bytes their chain hash covers.
func TestBlobRefsMarshalLikeMap(t *testing.T) {
	for _, m := range []map[string]string{
		nil,
		{},
		{"trace.json": "ab12"},
		{"trace.json": "ab12", "deadlock.txt": "cd34", "<a>&b ": "\"q\"", "": "e"},
	} {
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		var refs BlobRefs
		if err := json.Unmarshal(want, &refs); err != nil {
			t.Fatalf("unmarshal %s: %v", want, err)
		}
		for name, digest := range m {
			if got, ok := refs.Get(name); !ok || got != digest {
				t.Errorf("%s: Get(%q) = %q, %v", want, name, got, ok)
			}
		}
		got, err := json.Marshal(refs)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("marshal = %s, %v; want %s", got, err, want)
		}
		// In a record, empty refs are omitted like an empty map.
		gotRec, _ := json.Marshal(Record{ArtifactBlobs: refs})
		wantRec, _ := json.Marshal(struct {
			Record
			ArtifactBlobs map[string]string `json:"artifactBlobs,omitempty"`
		}{ArtifactBlobs: m})
		if bytes.Contains(gotRec, []byte("artifactBlobs")) != bytes.Contains(wantRec, []byte("artifactBlobs")) {
			t.Errorf("record %s vs map form %s", gotRec, wantRec)
		}
	}
	// Duplicate names: the last wins, as in a map.
	var refs BlobRefs
	if err := json.Unmarshal([]byte(`{"a":"1","b":"2","a":"3"}`), &refs); err != nil {
		t.Fatal(err)
	}
	if got, _ := json.Marshal(refs); string(got) != `{"a":"3","b":"2"}` {
		t.Errorf("duplicates: %s", got)
	}
}
