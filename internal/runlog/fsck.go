package runlog

// Fsck is the offline integrity checker and repair tool of the run
// registry. It operates directly on the files — no Registry is opened —
// so it can examine an index that Open itself refuses (a broken chain
// aborts Open with a pointer here).
//
// The check walks three layers:
//
//  1. parse — every index line must be intact JSON (a torn append or
//     mid-file garbling ends the verified prefix);
//  2. chain — every parsed record must extend the hash chain from the
//     genesis anchor (a flipped byte anywhere in a chained record
//     breaks verification at exactly that record);
//  3. blobs — every stored blob must hash to its own name, and every
//     blob a verified record references must exist.
//
// Repair never destroys data: the damaged index tail is quarantined to
// quarantine/index.damaged.jsonl, corrupt blobs are moved to
// quarantine/blobs/, and the verified prefix is rewritten atomically,
// re-chained from genesis with legacy (pre-ledger) records adopted into
// the chain — the explicit half of the migration path (GC is the
// automatic half). A blob referenced by a record but absent from the
// store is a warning, not a problem, so a post-repair fsck comes back
// clean; Strict upgrades it to a problem for installations that require
// every artifact byte present.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"mamps/internal/runlog/blobs"
	"mamps/internal/runlog/ledger"
)

// quarantineDirName is where fsck -repair moves damaged data, under the
// registry root.
const quarantineDirName = "quarantine"

// FsckOptions configure a check.
type FsckOptions struct {
	// Repair quarantines the damaged index tail and corrupt blobs, then
	// rewrites the verified prefix re-chained from genesis (adopting
	// legacy records).
	Repair bool
	// Strict makes a missing referenced blob a problem instead of a
	// warning.
	Strict bool
}

// Problem names one integrity finding precisely enough to locate it:
// the index line, the record ID and/or blob digest involved, a stable
// kind, and human-readable detail.
type Problem struct {
	Line     int    `json:"line,omitempty"`     // 1-based index line, when index-located
	RecordID string `json:"recordId,omitempty"` // run involved, when known
	Blob     string `json:"blob,omitempty"`     // blob digest involved, when blob-located
	Kind     string `json:"kind"`               // parse | chain | torn-tail | torn-newline | blob-corrupt | blob-missing | blob-alien
	Detail   string `json:"detail"`
}

func (p Problem) String() string {
	s := p.Kind
	if p.Line > 0 {
		s += fmt.Sprintf(" line %d", p.Line)
	}
	if p.RecordID != "" {
		s += " record " + p.RecordID
	}
	if p.Blob != "" {
		s += " blob " + p.Blob
	}
	return s + ": " + p.Detail
}

// Report is the outcome of one Fsck pass.
type Report struct {
	Records int    `json:"records"` // verified records (chained + legacy)
	Chained int    `json:"chained"` // records carrying verified chain hashes
	Legacy  int    `json:"legacy"`  // pre-ledger records adopted in memory
	Blobs   int    `json:"blobs"`   // blobs present in the store
	Root    string `json:"root"`    // Merkle root over the verified records

	Problems []Problem `json:"problems,omitempty"` // integrity violations
	Warnings []Problem `json:"warnings,omitempty"` // notable but non-fatal findings

	Repaired         bool `json:"repaired,omitempty"`
	QuarantinedLines int  `json:"quarantinedLines,omitempty"` // index lines moved to quarantine
	QuarantinedBlobs int  `json:"quarantinedBlobs,omitempty"` // corrupt blobs moved to quarantine
	Adopted          int  `json:"adopted,omitempty"`          // legacy records chained on disk by repair
}

// OK reports whether the check found no integrity violations.
func (rep *Report) OK() bool { return len(rep.Problems) == 0 }

// Fsck verifies the registry rooted at dir; see the package comment on
// this file for the layers checked and the repair semantics. The
// returned error covers I/O failures of the check itself — integrity
// findings land in the report.
func Fsck(dir string, opt FsckOptions) (*Report, error) {
	rep := &Report{}
	indexPath := filepath.Join(dir, indexName)
	data, err := os.ReadFile(indexPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("runlog: fsck: %w", err)
	}

	// Layer 1+2: parse and chain-verify the index, line by line. The
	// verified prefix ends at the first finding; everything after is the
	// damaged tail.
	var okRecs []Record
	tip := ledger.Genesis()
	tree := &ledger.Tree{}
	goodBytes := 0 // byte length of the verified prefix
	lineNo := 0
	offset := 0
	tornNewline := false
	for offset < len(data) {
		nl := bytes.IndexByte(data[offset:], '\n')
		terminated := nl >= 0
		var lineBytes []byte
		end := len(data)
		if terminated {
			lineBytes = data[offset : offset+nl]
			end = offset + nl + 1
		} else {
			lineBytes = data[offset:]
		}
		lineNo++
		trimmed := bytes.TrimSpace(lineBytes)
		if len(trimmed) == 0 {
			goodBytes, offset = end, end
			continue
		}
		var rec Record
		if jerr := json.Unmarshal(trimmed, &rec); jerr != nil {
			kind := "parse"
			if !terminated {
				kind = "torn-tail" // the signature of a crash mid-append
			}
			rep.Problems = append(rep.Problems, Problem{Line: lineNo, Kind: kind, Detail: jerr.Error()})
			break
		}
		leaf, legacy, cerr := chainStep(tip, &rec, trimmed, len(okRecs) == 0)
		if cerr != nil {
			rep.Problems = append(rep.Problems, Problem{Line: lineNo, RecordID: rec.ID, Kind: "chain", Detail: cerr.Error()})
			break
		}
		if !terminated {
			// Parsed and chained, it only lost its newline.
			tornNewline = true
			rep.Warnings = append(rep.Warnings, Problem{Line: lineNo, RecordID: rec.ID, Kind: "torn-newline",
				Detail: "final record lost its newline (crash between write and newline); repair normalizes it"})
		}
		if legacy {
			rep.Legacy++
		} else {
			rep.Chained++
		}
		tip = leaf
		tree.Append(leaf)
		okRecs = append(okRecs, rec)
		goodBytes, offset = end, end
	}
	rep.Records = len(okRecs)
	rep.Root = tree.Root().Hex()

	// Layer 3: every stored blob must hash to its name; every blob a
	// verified record references must exist.
	bs, err := blobs.Open(filepath.Join(dir, blobsDirName))
	if err != nil {
		return nil, fmt.Errorf("runlog: fsck: %w", err)
	}
	digests, aliens, err := bs.List()
	if err != nil {
		return nil, fmt.Errorf("runlog: fsck: %w", err)
	}
	rep.Blobs = len(digests)
	var corrupt []string
	for _, d := range digests {
		if verr := bs.Verify(d); verr != nil {
			rep.Problems = append(rep.Problems, Problem{Blob: d, Kind: "blob-corrupt", Detail: verr.Error()})
			corrupt = append(corrupt, d)
		}
	}
	for _, p := range aliens {
		rep.Warnings = append(rep.Warnings, Problem{Kind: "blob-alien", Detail: "unexpected file in blob store: " + p})
	}
	for i := range okRecs {
		rec := &okRecs[i]
		for _, b := range rec.ArtifactBlobs {
			name, d := b.Name, b.Digest
			if _, perr := bs.Path(d); perr != nil {
				pr := Problem{RecordID: rec.ID, Blob: d, Kind: "blob-missing",
					Detail: fmt.Sprintf("artifact %q: %v", name, perr)}
				if opt.Strict {
					rep.Problems = append(rep.Problems, pr)
				} else {
					rep.Warnings = append(rep.Warnings, pr)
				}
			}
		}
		for name, d := range rec.Profiles {
			if _, perr := bs.Path(d); perr != nil {
				pr := Problem{RecordID: rec.ID, Blob: d, Kind: "blob-missing",
					Detail: fmt.Sprintf("profile %q: %v", name, perr)}
				if opt.Strict {
					rep.Problems = append(rep.Problems, pr)
				} else {
					rep.Warnings = append(rep.Warnings, pr)
				}
			}
		}
	}

	if !opt.Repair {
		return rep, nil
	}

	// Repair. Quarantine first, then rewrite — a crash mid-repair loses
	// nothing, it just leaves the next fsck the same work.
	damagedTail := goodBytes < len(data)
	if damagedTail {
		qdir := filepath.Join(dir, quarantineDirName)
		if err := os.MkdirAll(qdir, 0o755); err != nil {
			return rep, fmt.Errorf("runlog: fsck: %w", err)
		}
		f, err := os.OpenFile(filepath.Join(qdir, "index.damaged.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return rep, fmt.Errorf("runlog: fsck: %w", err)
		}
		tail := data[goodBytes:]
		_, werr := f.Write(tail)
		if werr == nil && len(tail) > 0 && tail[len(tail)-1] != '\n' {
			_, werr = f.WriteString("\n")
		}
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return rep, fmt.Errorf("runlog: fsck: quarantining index tail: %w", werr)
		}
		for _, ln := range bytes.Split(tail, []byte("\n")) {
			if len(bytes.TrimSpace(ln)) > 0 {
				rep.QuarantinedLines++
			}
		}
	}
	for _, d := range corrupt {
		qdir := filepath.Join(dir, quarantineDirName, "blobs")
		if err := os.MkdirAll(qdir, 0o755); err != nil {
			return rep, fmt.Errorf("runlog: fsck: %w", err)
		}
		p, perr := bs.Path(d)
		if perr != nil {
			continue // already gone
		}
		if err := os.Rename(p, filepath.Join(qdir, d)); err != nil {
			return rep, fmt.Errorf("runlog: fsck: quarantining blob %s: %w", d, err)
		}
		rep.QuarantinedBlobs++
	}
	if damagedTail || rep.Legacy > 0 || tornNewline {
		_, newTree, _, err := chainAndWriteIndex(dir, okRecs)
		if err != nil {
			return rep, fmt.Errorf("runlog: fsck: rewriting index: %w", err)
		}
		rep.Adopted = rep.Legacy
		// Adoption changes legacy content hashes (Format is now set), so
		// the authoritative root is the post-repair one.
		rep.Root = newTree.Root().Hex()
	}
	rep.Repaired = true
	return rep, nil
}
