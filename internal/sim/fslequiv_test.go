package sim

import (
	"math/rand"
	"testing"

	"mamps/internal/fsl"
)

// TestWordLinkMatchesFSLModel cross-validates the simulator's word link
// against the stand-alone FSL RTL model (package fsl): driven with the
// same randomized write/read sequence, words become readable at identical
// cycles and capacity limits agree.
func TestWordLinkMatchesFSLModel(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		depth := 1 + r.Intn(8)
		latency := int64(1 + r.Intn(4))
		link := newWordLink("x", depth, latency, 1)
		ref, err := fsl.New("x", depth, latency)
		if err != nil {
			t.Fatal(err)
		}
		var now int64
		for step := 0; step < 200; step++ {
			now += int64(r.Intn(3))
			if r.Intn(2) == 0 {
				canSim := !link.fifo.full()
				canRef := ref.CanWrite(now)
				if canSim != canRef {
					t.Fatalf("trial %d: write availability differs at %d (sim %v, fsl %v)", trial, now, canSim, canRef)
				}
				if canSim {
					link.inject(now, true, nil)
					ref.Write(now, 0)
				}
			} else {
				canSim := link.visibleWords(now) > 0
				canRef := ref.CanRead(now)
				if canSim != canRef {
					t.Fatalf("trial %d: read availability differs at %d (sim %v, fsl %v)", trial, now, canSim, canRef)
				}
				if canSim {
					link.readWords(1)
					ref.Read(now)
				}
			}
		}
	}
}
