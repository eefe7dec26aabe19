// Command mamps-runs inspects and gates the persistent run registry
// written by mamps-serve -runlog (and by the regress replay itself).
//
//	mamps-runs -dir RUNLOG list [FILTERS] [-limit N] [-offset N]
//	mamps-runs -dir RUNLOG stats [FILTERS] [-group-by DIM] [-json]
//	mamps-runs -dir RUNLOG show ID
//	mamps-runs -dir RUNLOG diff ID-A ID-B
//	mamps-runs -dir RUNLOG gc [-max-records N] [-max-age D]
//	mamps-runs -dir RUNLOG baseline [ID]
//	mamps-runs -dir RUNLOG fsck [-repair] [-strict] [-json]
//	mamps-runs -dir RUNLOG prove ID
//	mamps-runs -dir RUNLOG root
//	mamps-runs regress [-baselines FILE] [-update] [-perturb N] [-perturb-energy PJ] [-quick]
//	                   [-deterministic] [-keep DIR]
//
// FILTERS select records; list and stats take the same ones, as do the
// service's GET /v1/runs and /v1/stats (in camelCase: graphKey): -app A,
// -kind K, -graph-key P (a prefix), -baseline-key B, -corpus C,
// -regressed, -degraded, -deadlocked, -faulted, and -since T and
// -until T (RFC 3339).
//
// `stats` is the offline entry point of the run-lake aggregation
// engine (internal/obs/agg): it streams the registry's JSONL index —
// no registry lock, scales past RAM — and prints per-group
// count/min/max/mean/p50/p95/p99 summaries of the flow's throughput
// bound, measured throughput, cycles, energy, exploration rate and
// per-stage wall times. `-json` renders the deterministic agg.Report
// wire form — byte-identical across replays of the same records, the
// property `make obs-agg-smoke` checks.
//
// `regress` replays the example-graph corpus and compares each entry
// against the checked-in baselines with zero tolerance — the flow's
// kernels are deterministic, so any drift in a throughput bound,
// measured cycles, states explored, simulator steps, solver search
// effort or energy estimate is a regression and exits nonzero.
// `-update` refreshes the baseline file instead; `-perturb N` adds N
// cycles to one WCET per entry and `-perturb-energy PJ` shifts the
// energy model's PE constant, each proving its gate fires. `make
// regress` wraps the gate for CI. `-deterministic` strips wall-clock
// content (timestamps, stage wall times) before recording, so two
// replays of the same corpus produce byte-identical indexes and the
// same ledger chain root — the property `make ledger-smoke` checks.
//
// `fsck`, `prove` and `root` are the integrity surface of the run
// ledger (internal/runlog/ledger): fsck verifies the hash chain and
// every artifact blob, naming the exact corrupted record or blob, and
// with -repair quarantines the damage and re-chains the verified
// prefix; prove prints a Merkle inclusion proof of one run against the
// registry's chain root; root prints the current root for external
// pinning.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
	"unicode"

	"mamps/internal/clock"
	"mamps/internal/corpus"
	"mamps/internal/obs/agg"
	"mamps/internal/runlog"
)

func main() {
	dir := flag.String("dir", "", "run registry directory (as given to mamps-serve -runlog)")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() == 0 {
		usage()
		os.Exit(2)
	}
	cmd, args := flag.Arg(0), flag.Args()[1:]
	var err error
	switch cmd {
	case "list":
		err = cmdList(*dir, args)
	case "stats":
		err = cmdStats(*dir, args)
	case "show":
		err = cmdShow(*dir, args)
	case "diff":
		err = cmdDiff(*dir, args)
	case "gc":
		err = cmdGC(*dir, args)
	case "baseline":
		err = cmdBaseline(*dir, args)
	case "fsck":
		err = cmdFsck(*dir, args)
	case "prove":
		err = cmdProve(*dir, args)
	case "root":
		err = cmdRoot(*dir, args)
	case "regress":
		err = cmdRegress(args)
	default:
		fmt.Fprintf(os.Stderr, "unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: mamps-runs [-dir RUNLOG] COMMAND [ARGS]

Commands:
  list      list recorded runs, newest first (FILTERS, -limit, -offset)
  stats     aggregate the run history: percentile summaries per group
            (FILTERS, -group-by graphKey|app|kind|baselineKey|corpus|outcome|none, -json)
  show ID   print one run record as JSON
  diff A B  structured comparison of two runs
  gc        enforce retention bounds (-max-records, -max-age)
  baseline  [ID] freeze a run as the reference for its key; no ID lists baselines
  fsck      verify the run ledger: hash chain, every blob (-repair quarantines
            damage and re-chains; -strict makes missing blobs fatal; -json)
  prove ID  print the run's Merkle inclusion proof against the chain root
  root      print the ledger's chain root (for external pinning)
  regress   replay the example-graph corpus against checked-in baselines
            (-deterministic for byte-identical replays, -keep DIR to keep them)

FILTERS (list and stats, as on GET /v1/runs and /v1/stats):
  -app A, -kind K, -graph-key PREFIX, -baseline-key B, -corpus C,
  -regressed, -degraded, -deadlocked, -faulted, -since T, -until T (RFC 3339)
`)
}

func openRegistry(dir string, opt runlog.Options) (*runlog.Registry, error) {
	if dir == "" {
		return nil, fmt.Errorf("this command needs -dir (the run registry directory)")
	}
	return runlog.Open(dir, opt)
}

// bindFilter defines the run filter's flags on fs: the flags of
// runlog.Filter.Flags, renamed from the query string's camelCase to
// kebab case (graphKey becomes -graph-key). It is the one filter flag
// set of list and stats.
func bindFilter(fs *flag.FlagSet, f *runlog.Filter) {
	f.Flags().VisitAll(func(fl *flag.Flag) {
		var name strings.Builder
		for _, c := range fl.Name {
			if unicode.IsUpper(c) {
				name.WriteByte('-')
				c = unicode.ToLower(c)
			}
			name.WriteRune(c)
		}
		fs.Var(fl.Value, name.String(), fl.Usage)
	})
}

func cmdList(dir string, args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	var f runlog.Filter
	bindFilter(fs, &f)
	limit := fs.Int("limit", 20, "page size (0 = all)")
	offset := fs.Int("offset", 0, "page offset")
	fs.Parse(args)
	r, err := openRegistry(dir, runlog.Options{})
	if err != nil {
		return err
	}
	defer r.Close()
	recs, total := r.List(f, *offset, *limit)
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "ID\tTIME\tKIND\tAPP\tOUTCOME\tBOUND\tREGRESSION")
	for _, rec := range recs {
		reg := "-"
		if rec.Regression != nil {
			reg = "ok"
			if rec.Regression.Regressed {
				reg = "REGRESSED"
			}
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%.6g\t%s\n",
			rec.ID, rec.Time.Format(time.RFC3339), rec.Kind,
			rec.App, rec.Outcome, rec.Bound, reg)
	}
	w.Flush()
	fmt.Printf("%d of %d run(s)\n", len(recs), total)
	return nil
}

// cmdStats streams the registry's JSONL index through the run-lake
// aggregation engine. It reads index.jsonl directly rather than opening
// the registry: no lock is taken, and memory stays flat however many
// records the lake holds.
func cmdStats(dir string, args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	var q agg.Query
	bindFilter(fs, &q.Filter)
	fs.StringVar(&q.GroupBy, "group-by", "", "grouping dimension: graphKey (default), app, kind, baselineKey, corpus, outcome, none")
	asJSON := fs.Bool("json", false, "print the deterministic agg.Report wire form")
	fs.Parse(args)
	if dir == "" {
		return fmt.Errorf("stats needs -dir (the run registry directory)")
	}
	f, err := os.Open(filepath.Join(dir, "index.jsonl"))
	if err != nil {
		return err
	}
	defer f.Close()
	rep, err := agg.ScanJSONL(f, q)
	if err != nil {
		return err
	}
	if *asJSON {
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		return nil
	}
	printReport(rep)
	return nil
}

// printReport renders an agg.Report as an aligned table: one row per
// group per metric that has observations, then the rollup.
func printReport(rep *agg.Report) {
	fmt.Printf("group by %s: %d of %d record(s) matched", rep.GroupBy, rep.Matched, rep.Scanned)
	if rep.Truncated {
		fmt.Print(" (index truncated)")
	}
	fmt.Println()
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "GROUP\tRUNS\tREGR\tMETRIC\tCOUNT\tMIN\tMEAN\tP50\tP95\tP99\tMAX")
	row := func(g agg.GroupStats) {
		names := make([]string, 0, len(g.Metrics))
		for name := range g.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			d := g.Metrics[name]
			fmt.Fprintf(w, "%s\t%d\t%d\t%s\t%d\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\n",
				g.Key, g.Runs, g.Regressed, name,
				d.Count, d.Min, d.Mean, d.P50, d.P95, d.P99, d.Max)
		}
		if len(names) == 0 {
			fmt.Fprintf(w, "%s\t%d\t%d\t-\t0\t-\t-\t-\t-\t-\t-\n", g.Key, g.Runs, g.Regressed)
		}
	}
	for _, g := range rep.Groups {
		row(g)
	}
	if len(rep.Groups) > 1 {
		row(rep.Total)
	}
	w.Flush()
}

func cmdShow(dir string, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: mamps-runs -dir DIR show ID")
	}
	r, err := openRegistry(dir, runlog.Options{})
	if err != nil {
		return err
	}
	defer r.Close()
	rec, ok := r.Get(args[0])
	if !ok {
		return fmt.Errorf("no run %q", args[0])
	}
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func cmdDiff(dir string, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: mamps-runs -dir DIR diff ID-A ID-B")
	}
	r, err := openRegistry(dir, runlog.Options{})
	if err != nil {
		return err
	}
	defer r.Close()
	d, err := r.CompareByID(args[0], args[1])
	if err != nil {
		return err
	}
	printDiff(d)
	return nil
}

func printDiff(d runlog.Diff) {
	fmt.Printf("diff %s -> %s\n", d.A, d.B)
	if d.GraphKeyChanged {
		fmt.Println("  graph key changed (different canonical model content)")
	}
	row := func(name string, dl runlog.Delta) {
		marker := " "
		if dl.Changed() {
			marker = "*"
		}
		fmt.Printf("%s %-16s %14.6g -> %-14.6g (%+.4g%%)\n", marker, name, dl.A, dl.B, dl.Rel*100)
	}
	row("bound", d.Bound)
	row("measured", d.Measured)
	row("expected", d.Expected)
	row("cycles", d.Cycles)
	row("energyPJ", d.EnergyPJ)
	row("analyses", d.Analyses)
	row("states", d.StatesExplored)
	row("simSteps", d.SimSteps)
	row("busyCycles", d.BusyCycles)
	row("stallCycles", d.StallCycles)
	row("faultEvents", d.FaultEvents)
	row("solverNodes", d.SolverNodes)
	row("solverPruned", d.SolverPruned)
	for _, s := range d.Stages {
		fmt.Printf("  stage %-32s %10.0fus -> %-10.0fus (x%.2f)\n", s.Name, s.AMicros, s.BMicros, s.Ratio)
	}
}

func cmdGC(dir string, args []string) error {
	fs := flag.NewFlagSet("gc", flag.ExitOnError)
	maxRecords := fs.Int("max-records", 0, "keep at most N records (0 = no count bound)")
	maxAge := fs.Duration("max-age", 0, "drop records older than this (0 = no age bound)")
	fs.Parse(args)
	r, err := openRegistry(dir, runlog.Options{MaxRecords: *maxRecords, MaxAge: *maxAge})
	if err != nil {
		return err
	}
	defer r.Close()
	n, err := r.GC()
	if err != nil {
		return err
	}
	fmt.Printf("removed %d record(s), %d kept\n", n, r.Len())
	return nil
}

func cmdBaseline(dir string, args []string) error {
	r, err := openRegistry(dir, runlog.Options{})
	if err != nil {
		return err
	}
	defer r.Close()
	if len(args) == 0 {
		for _, b := range r.Baselines() {
			fmt.Printf("%-44s %s bound=%.6g\n", b.BaselineKey, b.ID, b.Bound)
		}
		return nil
	}
	rec, err := r.SetBaseline(args[0])
	if err != nil {
		return err
	}
	fmt.Printf("baseline %s frozen from run %s\n", rec.BaselineKey, rec.ID)
	return nil
}

func cmdFsck(dir string, args []string) error {
	fs := flag.NewFlagSet("fsck", flag.ExitOnError)
	repair := fs.Bool("repair", false, "quarantine damaged records/blobs and re-chain the verified prefix")
	strict := fs.Bool("strict", false, "treat a referenced-but-missing blob as a problem, not a warning")
	asJSON := fs.Bool("json", false, "print the full report as JSON")
	fs.Parse(args)
	if dir == "" {
		return fmt.Errorf("fsck needs -dir (the run registry directory)")
	}
	rep, err := runlog.Fsck(dir, runlog.FsckOptions{Repair: *repair, Strict: *strict})
	if err != nil {
		return err
	}
	if *asJSON {
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(out))
	} else {
		for _, p := range rep.Problems {
			fmt.Printf("PROBLEM  %s\n", p)
		}
		for _, w := range rep.Warnings {
			fmt.Printf("warning  %s\n", w)
		}
		fmt.Printf("%d record(s) verified (%d chained, %d legacy), %d blob(s)\n",
			rep.Records, rep.Chained, rep.Legacy, rep.Blobs)
		if rep.Repaired {
			fmt.Printf("repaired: %d index line(s) and %d blob(s) quarantined, %d legacy record(s) adopted\n",
				rep.QuarantinedLines, rep.QuarantinedBlobs, rep.Adopted)
		}
		fmt.Printf("root %s\n", rep.Root)
	}
	// -repair resolves what it found; without it, problems gate the exit
	// code so CI and scripts can rely on `fsck` alone.
	if !rep.OK() && !*repair {
		return fmt.Errorf("fsck: %d problem(s) found", len(rep.Problems))
	}
	return nil
}

func cmdProve(dir string, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: mamps-runs -dir DIR prove ID")
	}
	if !runlog.ValidID(args[0]) {
		return fmt.Errorf("malformed run id %q", args[0])
	}
	r, err := openRegistry(dir, runlog.Options{})
	if err != nil {
		return err
	}
	defer r.Close()
	p, err := r.Prove(args[0])
	if err != nil {
		return err
	}
	// Self-check before printing: a proof this binary cannot verify is a
	// bug, not a deliverable.
	if err := p.Proof.Verify(); err != nil {
		return fmt.Errorf("proof self-check failed: %w", err)
	}
	out, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// cmdRoot verifies the on-disk chain (file-level, no registry lock) and
// prints the Merkle root — the value to pin externally next to
// published results.
func cmdRoot(dir string, args []string) error {
	if len(args) != 0 {
		return fmt.Errorf("usage: mamps-runs -dir DIR root")
	}
	if dir == "" {
		return fmt.Errorf("root needs -dir (the run registry directory)")
	}
	rep, err := runlog.Fsck(dir, runlog.FsckOptions{})
	if err != nil {
		return err
	}
	if !rep.OK() {
		return fmt.Errorf("registry fails verification (%d problem(s)); run `mamps-runs -dir %s fsck` for details", len(rep.Problems), dir)
	}
	fmt.Println(rep.Root)
	return nil
}

func cmdRegress(args []string) error {
	fs := flag.NewFlagSet("regress", flag.ExitOnError)
	baselines := fs.String("baselines", "regress/baselines.json", "checked-in baseline records")
	update := fs.Bool("update", false, "rewrite the baseline file from this replay instead of gating")
	perturb := fs.Int64("perturb", 0, "add N cycles to one WCET per entry (to demonstrate the gate)")
	perturbEnergy := fs.Float64("perturb-energy", 0, "add N pJ/cycle to the PE energy constant (to demonstrate the energy gate)")
	quick := fs.Bool("quick", false, "skip the MJPEG flow entries")
	keep := fs.String("keep", "", "record the replay into this registry directory (default: a temp dir)")
	deterministic := fs.Bool("deterministic", false, "strip wall-clock content and use a fixed clock, so replays are byte-identical")
	fs.Parse(args)

	results, err := corpus.Run(corpus.Options{PerturbWCET: *perturb, PerturbEnergy: *perturbEnergy, Quick: *quick})
	if err != nil {
		return err
	}

	if *update {
		out := make([]runlog.Record, 0, len(results))
		for _, res := range results {
			out = append(out, corpus.Strip(res.Record))
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Corpus < out[j].Corpus })
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*baselines, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %d baseline record(s) to %s\n", len(out), *baselines)
		return nil
	}

	data, err := os.ReadFile(*baselines)
	if err != nil {
		return fmt.Errorf("reading baselines (run `mamps-runs regress -update` to create them): %w", err)
	}
	var base []runlog.Record
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing %s: %w", *baselines, err)
	}

	dir := *keep
	if dir == "" {
		tmp, err := os.MkdirTemp("", "mamps-regress-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	// The detector compares exactly: the kernels are deterministic, so
	// the gate demands bit-identical numbers.
	opt := runlog.Options{}
	if *deterministic {
		// A fixed clock plus Strip'd records makes the whole index — and
		// therefore the ledger chain root — a pure function of the corpus.
		opt.Clock = clock.NewFake(time.Time{})
	}
	r, err := runlog.Open(dir, opt)
	if err != nil {
		return err
	}
	defer r.Close()
	for _, b := range base {
		if err := r.ImportBaseline(b); err != nil {
			return err
		}
	}

	failed := 0
	for _, res := range results {
		rec := res.Record
		if *deterministic {
			rec = corpus.Strip(rec)
		}
		stored, err := r.Append(rec, res.Artifacts...)
		if err != nil {
			return err
		}
		switch {
		case stored.Regression == nil:
			failed++
			fmt.Printf("FAIL  %-12s no baseline for key %s (run `mamps-runs regress -update`)\n",
				rec.Corpus, stored.BaselineKey)
		case stored.Regression.Regressed:
			failed++
			fmt.Printf("FAIL  %-12s (%s)\n", rec.Corpus, stored.ID)
			for _, reason := range stored.Regression.Reasons {
				fmt.Printf("      %s\n", reason)
			}
		default:
			line := fmt.Sprintf("ok    %-12s bound=%.6g states=%d simSteps=%d",
				rec.Corpus, stored.Bound, stored.Counters.StatesExplored, stored.Counters.SimSteps)
			if stored.EnergyPJ > 0 {
				line += fmt.Sprintf(" energyPJ=%.6g", stored.EnergyPJ)
			}
			if stored.Counters.SolverNodes > 0 {
				line += fmt.Sprintf(" solverNodes=%d pruned=%d",
					stored.Counters.SolverNodes, stored.Counters.SolverPruned)
			}
			fmt.Println(line)
		}
	}
	fmt.Printf("%d entr(ies) replayed, %d regressed (mamps_regressions_total %d)\n",
		len(results), failed, r.Regressions())
	if failed > 0 {
		return fmt.Errorf("regression gate failed")
	}
	return nil
}
