package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
)

// request is one HTTP call of a workload, with what its checks need.
type request struct {
	Path string          `json:"path"`
	Body json.RawMessage `json:"body"`
	// Target is the targetThroughput of an /v1/analyze request.
	Target float64 `json:"-"`
	// Key indexes the primed answer a cache-hit request must reproduce
	// (-1 elsewhere).
	Key int `json:"-"`
}

// workload is a traffic mix: its connection count, whether the server
// records runs, the set-up requests and the seeded timed sequence.
type workload struct {
	name   string
	conns  int
	runlog bool
	warmup []request
	seq    *sequence
}

// sequence hands out a seeded request sequence in order. Request i is
// the same in every run with the same seed, whichever client takes it.
type sequence struct {
	mu   sync.Mutex
	next func() request
	reqs []request
}

func (s *sequence) at(i int) request {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.reqs) <= i {
		s.reqs = append(s.reqs, s.next())
	}
	return s.reqs[i]
}

var workloadNames = []string{"flow-cold", "cache-hit", "analysis-mix", "flow-recorded"}

// newWorkload builds a workload's requests from the seed.
func newWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case "flow-cold", "flow-recorded":
		// flow-recorded replays flow-cold's generator under its own seed
		// stream, so the two never send the same specs.
		fg := &flowGen{rng: newRand(seed, name), seen: map[string]bool{}}
		w := &workload{name: name, conns: 1, runlog: name == "flow-recorded"}
		for _, tiles := range []int{2, 3, 4, 5} {
			for _, ic := range []string{"fsl", "noc"} {
				w.warmup = append(w.warmup, fg.drawWith(tiles, ic))
			}
		}
		w.seq = &sequence{next: fg.draw}
		return w, nil
	case "cache-hit":
		return cacheHit(seed), nil
	case "analysis-mix":
		ag := &analysisGen{rng: newRand(seed, name), seen: map[string]bool{}}
		w := &workload{name: name, conns: 1}
		// Warm-up: the unperturbed model, sized for six targets and swept
		// once with and once without the solver; the same on every seed,
		// so set-up does the same work on every seed.
		for _, frac := range []float64{0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
			target := frac * maxThroughput(baseWCET)
			r, _ := distinct(ag.seen, "/v1/analyze", analyzeBody{AppXML: appXML(baseWCET), TargetThroughput: target})
			r.Target = target
			w.warmup = append(w.warmup, r)
		}
		for _, solver := range []bool{true, false} {
			r, _ := distinct(ag.seen, "/v1/dse", dseBody{AppXML: appXML(baseWCET), MinTiles: 2, MaxTiles: 3,
				Interconnects: []string{"fsl", "noc"}, Solver: solver})
			w.warmup = append(w.warmup, r)
		}
		w.seq = &sequence{next: ag.draw}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// newRand derives an independent generator per (seed, stream).
func newRand(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, stream)
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

// ---- /v1/flow specs ----

type workloadSpec struct {
	Name     string `json:"name"`
	Width    int    `json:"width"`
	Height   int    `json:"height"`
	Frames   int    `json:"frames"`
	Quality  int    `json:"quality"`
	Sequence string `json:"sequence"`
}

type flowBody struct {
	Workload     workloadSpec `json:"workload"`
	Tiles        int          `json:"tiles"`
	Interconnect string       `json:"interconnect"`
	Iterations   int          `json:"iterations"`
}

var sequences = []string{"gradient", "bouncing-box", "plasma", "checker-noise", "bars", "synthetic"}

// flowGen draws distinct executing flow requests; seen spans warm-up and
// timed requests, so no timed request repeats a warm-up one. The timed
// sequence comes in blocks of 24 that hold every frame size
// (width x height x frames) once, every tiles x interconnect pair three
// times and every test sequence four times, so that runs on different
// seeds do the same mix of work.
type flowGen struct {
	rng   *rand.Rand
	seen  map[string]bool
	block []flowBody
}

var (
	flowSizes [][3]int // width, height, frames
	flowPlats []flowBody
)

func init() {
	for _, w := range []int{16, 32, 48, 64} {
		for _, h := range []int{16, 32, 48} {
			for _, f := range []int{1, 2} {
				flowSizes = append(flowSizes, [3]int{w, h, f})
			}
		}
	}
	for _, tiles := range []int{2, 3, 4, 5} {
		for _, ic := range []string{"fsl", "noc"} {
			flowPlats = append(flowPlats, flowBody{Tiles: tiles, Interconnect: ic})
		}
	}
}

func (g *flowGen) draw() request {
	if len(g.block) == 0 {
		n := len(flowSizes)
		sizes, plats, seqs := g.rng.Perm(n), g.rng.Perm(n), g.rng.Perm(n)
		for i := 0; i < n; i++ {
			b := flowPlats[plats[i]%len(flowPlats)]
			sz := flowSizes[sizes[i]]
			b.Workload = workloadSpec{Name: "mjpeg", Width: sz[0], Height: sz[1], Frames: sz[2],
				Sequence: sequences[seqs[i]%len(sequences)]}
			b.Iterations = -1
			g.block = append(g.block, b)
		}
	}
	b := g.block[0]
	g.block = g.block[1:]
	return g.withQuality(b)
}

// drawWith draws a warm-up request for one platform. Warm-ups all decode
// 32x32 pixels, one frame, so set-up does the same work on every seed.
func (g *flowGen) drawWith(tiles int, ic string) request {
	return g.withQuality(flowBody{
		Workload: workloadSpec{Name: "mjpeg", Width: 32, Height: 32, Frames: 1,
			Sequence: sequences[g.rng.Intn(len(sequences))]},
		Tiles: tiles, Interconnect: ic, Iterations: -1,
	})
}

// withQuality draws the JPEG quality until the request is new.
func (g *flowGen) withQuality(b flowBody) request {
	for {
		b.Workload.Quality = 50 + g.rng.Intn(46)
		if r, ok := distinct(g.seen, "/v1/flow", b); ok {
			return r
		}
	}
}

// distinct marshals a body and reports whether it is new.
func distinct(seen map[string]bool, path string, body any) (request, bool) {
	raw, err := json.Marshal(body)
	if err != nil {
		panic(err) // plain structs of numbers and strings always marshal
	}
	if seen[path+string(raw)] {
		return request{}, false
	}
	seen[path+string(raw)] = true
	return request{Path: path, Body: raw, Key: -1}, true
}

// ---- inline MJPEG models ----

// mjpegAppXML is the MJPEG decoder graph as modelio.WriteApp writes it,
// with the five actors' WCETs (VLD, IQZZ, IDCT, CC, Raster) left as %d.
//
//go:embed mjpeg_app.xml
var mjpegAppXML string

var (
	baseWCET    = [5]int64{25340, 286, 1064, 1586, 552}
	repetitions = [5]int64{1, 10, 10, 1, 1}
)

func appXML(w [5]int64) string {
	return fmt.Sprintf(mjpegAppXML, w[0], w[1], w[2], w[3], w[4])
}

// maxThroughput is the graph's throughput with unbounded buffers and
// every actor serialized: one iteration per max_a q(a)·WCET(a) cycles.
func maxThroughput(w [5]int64) float64 {
	var worst int64
	for i := range w {
		worst = max(worst, repetitions[i]*w[i])
	}
	return 1 / float64(worst)
}

// perturb scales each WCET independently by a factor in [0.6, 1.4).
func perturb(rng *rand.Rand) [5]int64 {
	var w [5]int64
	for i, b := range baseWCET {
		w[i] = max(1, int64(math.Round(float64(b)*(0.6+0.8*rng.Float64()))))
	}
	return w
}

type analyzeBody struct {
	AppXML           string  `json:"appXML"`
	TargetThroughput float64 `json:"targetThroughput"`
}

type dseBody struct {
	AppXML        string   `json:"appXML"`
	MinTiles      int      `json:"minTiles"`
	MaxTiles      int      `json:"maxTiles"`
	Interconnects []string `json:"interconnects"`
	Solver        bool     `json:"solver,omitempty"`
}

// analyzeReq sizes buffers for a target between 30% and 90% of the
// graph's unbounded-buffer throughput, so every target is reachable.
func analyzeReq(seen map[string]bool, rng *rand.Rand, w [5]int64) (request, bool) {
	target := (0.3 + 0.6*rng.Float64()) * maxThroughput(w)
	r, ok := distinct(seen, "/v1/analyze", analyzeBody{AppXML: appXML(w), TargetThroughput: target})
	r.Target = target
	return r, ok
}

// analysisGen draws the analysis-mix over perturbed MJPEG models. It
// comes in blocks of 20: 15 /v1/analyze buffer sizings and 5 /v1/dse
// sweeps; 3 of the 20 scale an earlier model uniformly (the warm scaled
// tier), 3 repeat an earlier model under a new request (exact analysis
// hits), and the rest are fresh models that no cache holds. Fixed block
// contents keep the mix, and so the work, the same on every seed.
type analysisGen struct {
	rng   *rand.Rand
	seen  map[string]bool
	hist  [][5]int64
	block []analysisSlot
	dses  int
}

type analysisSlot struct {
	source int // 0 fresh, 1 scaled, 2 repeated
	dse    bool
}

func (g *analysisGen) draw() request {
	if len(g.block) == 0 {
		sources, kinds := g.rng.Perm(20), g.rng.Perm(20)
		for i := 0; i < 20; i++ {
			slot := analysisSlot{dse: kinds[i] < 5}
			switch {
			case sources[i] < 3:
				slot.source = 1
			case sources[i] < 6:
				slot.source = 2
			}
			g.block = append(g.block, slot)
		}
	}
	slot := g.block[0]
	g.block = g.block[1:]
	for {
		var w [5]int64
		switch {
		case slot.source == 1 && len(g.hist) > 0:
			k := int64(2 + g.rng.Intn(2))
			for i, v := range g.hist[g.rng.Intn(len(g.hist))] {
				w[i] = k * v
			}
		case slot.source == 2 && len(g.hist) > 0:
			w = g.hist[g.rng.Intn(len(g.hist))]
		default:
			w = perturb(g.rng)
			g.hist = append(g.hist, w)
		}
		var r request
		var ok bool
		if slot.dse {
			r, ok = distinct(g.seen, "/v1/dse", g.sweep(w))
		} else {
			r, ok = analyzeReq(g.seen, g.rng, w)
		}
		if ok {
			return r
		}
	}
}

// sweep alternates branch-and-bound sweeps, to 2 and to 3 tiles, with
// greedy sweeps to 2-5 tiles. Every solver leaf is a full state-space
// verification: a solver sweep to 4 or 5 tiles costs 170-440 ms on a
// 2-core host and would dominate the run, so solver sweeps stop at 3.
func (g *analysisGen) sweep(w [5]int64) dseBody {
	b := dseBody{AppXML: appXML(w), MinTiles: 2, Interconnects: []string{"fsl", "noc"}}
	switch g.dses % 4 {
	case 0:
		b.Solver, b.MaxTiles = true, 2
	case 2:
		b.Solver, b.MaxTiles = true, 3
	default:
		b.MaxTiles = 2 + g.rng.Intn(4)
	}
	g.dses++
	return b
}

// ---- cache-hit ----

// cacheHitKeys is the number of distinct requests cache-hit repeats:
// half executing flows, one of every frame size, and half analyses with
// inline XML.
const cacheHitKeys = 48

func cacheHit(seed int64) *workload {
	rng := newRand(seed, "cache-hit")
	seen := map[string]bool{}
	fg := &flowGen{rng: rng, seen: seen}
	w := &workload{name: "cache-hit", conns: 2}
	for len(w.warmup) < cacheHitKeys {
		var r request
		if len(w.warmup)%2 == 0 {
			r = fg.draw()
		} else {
			var ok bool
			for !ok {
				r, ok = analyzeReq(seen, rng, perturb(rng))
			}
		}
		r.Key = len(w.warmup)
		w.warmup = append(w.warmup, r)
	}
	w.seq = &sequence{next: func() request { return w.warmup[rng.Intn(cacheHitKeys)] }}
	return w
}
