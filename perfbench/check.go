package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"regexp"
)

type throughput struct {
	ItersPerCycle float64 `json:"itersPerCycle"`
}

type step struct {
	Name   string  `json:"name"`
	Micros float64 `json:"micros"`
}

type dsePoint struct {
	Label      string     `json:"label"`
	Throughput throughput `json:"throughput"`
	Slices     int        `json:"slices"`
	EnergyPJ   float64    `json:"energyPJ"`
	Pareto     bool       `json:"pareto"`
}

// response holds the fields of the three compute endpoints' answers that
// the checks and the traced run read.
type response struct {
	WorstCase throughput `json:"worstCase"`
	Expected  throughput `json:"expected"`
	Measured  throughput `json:"measured"`
	Achieved  throughput `json:"achieved"`
	Steps     []step     `json:"steps"`
	Points    []dsePoint `json:"points"`
	Cached    bool       `json:"cached"`
	ElapsedMS float64    `json:"elapsedMS"`
}

// check parses a response and applies the checks of its endpoint. primed
// is the normalized first answer to the same cache-hit key, or nil; that
// answer passed these checks, so a hit only has to reproduce it, and is
// returned undecoded.
func check(req request, status int, body []byte, primed []byte) (response, error) {
	var r response
	if status != 200 {
		return r, fmt.Errorf("%s: status %d: %.200s", req.Path, status, body)
	}
	if primed != nil {
		if !bytes.Equal(normalize(body), primed) {
			return r, fmt.Errorf("%s: body differs from the primed answer of key %d", req.Path, req.Key)
		}
		return r, nil
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return r, fmt.Errorf("%s: %v", req.Path, err)
	}
	switch req.Path {
	case "/v1/flow":
		// The paper's guarantee: the worst-case bound is conservative.
		wc := r.WorstCase.ItersPerCycle
		if wc <= 0 || r.Measured.ItersPerCycle < wc || r.Expected.ItersPerCycle < wc {
			return r, fmt.Errorf("flow: worst case %g, expected %g, measured %g",
				wc, r.Expected.ItersPerCycle, r.Measured.ItersPerCycle)
		}
	case "/v1/analyze":
		if r.Achieved.ItersPerCycle < req.Target {
			return r, fmt.Errorf("analyze: achieved %g below target %g", r.Achieved.ItersPerCycle, req.Target)
		}
	case "/v1/dse":
		if err := checkFront(r.Points); err != nil {
			return r, err
		}
	}
	return r, nil
}

// checkFront verifies that the points marked Pareto are mutually
// non-dominated in (throughput up, slices down, energy down).
func checkFront(points []dsePoint) error {
	var front []dsePoint
	for _, p := range points {
		if p.Pareto {
			front = append(front, p)
		}
	}
	if len(front) == 0 {
		return fmt.Errorf("dse: empty Pareto front over %d points", len(points))
	}
	for _, a := range front {
		for _, b := range front {
			if a.Throughput.ItersPerCycle >= b.Throughput.ItersPerCycle && a.Slices <= b.Slices && a.EnergyPJ <= b.EnergyPJ &&
				(a.Throughput.ItersPerCycle > b.Throughput.ItersPerCycle || a.Slices < b.Slices || a.EnergyPJ < b.EnergyPJ) {
				return fmt.Errorf("dse: front point %s dominates front point %s", a.Label, b.Label)
			}
		}
	}
	return nil
}

var volatileField = regexp.MustCompile(`"(elapsedMS|cached)": [^,\n}]*`)

// normalize blanks the fields that legitimately differ between a primed
// answer and its cache hits.
func normalize(body []byte) []byte {
	return volatileField.ReplaceAll(body, []byte(`"$1": _`))
}

// digest hashes the deterministic fields of a response (bounds, measured
// and achieved throughputs, bindings, buffers, DSE points): everything
// except wall times and cache flags.
func digest(body []byte) (string, error) {
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		return "", err
	}
	delete(m, "elapsedMS")
	delete(m, "cached")
	delete(m, "steps")
	canon, err := json.Marshal(m) // map keys marshal sorted
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}

// chainDigests folds per-response digests, in sequence order, into one.
func chainDigests(ds []string) string {
	h := sha256.New()
	for _, d := range ds {
		h.Write([]byte(d))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
