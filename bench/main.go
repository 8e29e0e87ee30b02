// Command bench is FanStore's ingest benchmark: it packs a seeded
// synthetic dataset, drives the real stack (Pack, RunTCP/Run, Mount, the
// plan-mode prefetch pipeline, ReadFile/Open) the way cmd/fanstore-train
// does, checks every byte, and prints every metric by name.
//
//	bash bench/run.sh --workload train_lz --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --workload train_lz --seed 1 --seconds 10 --trace 1
//	bash bench/run.sh -runs 5 -out a.json      # every workload, both runs
//	bash bench/run.sh -compare a.json b.json
//
// With -trace 0 a run is the e2e run: nothing attached to the program,
// end-to-end metrics only. With -trace 1 it is the traced run: an
// untraced and a traced window from one pack, bench-owned spans at the
// public seams, the program's registry and tracer read by name, isolated
// layer probes, and the shape checks; per-layer metrics only. The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. See README.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"
)

// config is one workload run's settings.
type config struct {
	seed     int64
	seconds  float64 // length of the timed window
	smoke    bool
	traceDir string
}

func warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

func main() {
	var cfg config
	workload := flag.String("workload", "", "workload to run (empty: every workload, each in its own process)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seeds the dataset generator and the per-epoch shuffles")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "0: e2e run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.BoolVar(&cfg.smoke, "smoke", false, "test sizing: datasets and caches at 1/16, one set-up")
	flag.StringVar(&cfg.traceDir, "trace-dir", filepath.Join(".bench_build", "traces"), "where a traced run writes its Chrome trace JSON")
	runs := flag.Int("runs", 1, "with no -workload: how many times to run the whole suite")
	out := flag.String("out", "", "with no -workload: write the suite's results to this JSON file")
	compare := flag.Bool("compare", false, "compare two suite result files: -compare base.json new.json")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			warnf("-compare takes two result files")
			os.Exit(2)
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			warnf("%v", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
	case *workload == "":
		if err := runSuite(cfg, *runs, *out); err != nil {
			warnf("%v", err)
			os.Exit(1)
		}
	default:
		sp, ok := workloadByName(*workload)
		if !ok {
			warnf("unknown workload %q", *workload)
			os.Exit(2)
		}
		// A run must end, with a non-zero status if need be, inside the
		// contract's 180 s even if a world wedges.
		time.AfterFunc(runLimit, func() {
			warnf("%s: still running after %v; giving up", sp.name, runLimit)
			os.Exit(3)
		})
		if cfg.smoke {
			sp = sp.smoke()
		}
		defs := endToEnd
		run := runE2E
		if *trace != 0 {
			defs, run = perLayer, runTraced
		}
		res, samples, err := run(sp, cfg)
		if err != nil {
			// A run that broke off still reports what it counted, as
			// incorrect, and exits non-zero.
			warnf("%s: %v", sp.name, err)
			res.Correct = false
			res.Failed++
		}
		printTable(os.Stdout, defs, res, samples)
		if err := emit(os.Stdout, res); err != nil || !res.Correct {
			os.Exit(1)
		}
	}
}

// runLimit bounds one workload run. The longest legitimate run (60 s
// window, three set-ups, probes) stays well inside it.
const runLimit = 170 * time.Second

// setups is how many times the e2e run sets up (Pack, launch, Mount,
// warm-up); setup_s is their median.
const setups = 3

// runE2E is the e2e run: set up several times from the same generated
// corpus, then measure one timed window with nothing attached.
func runE2E(sp spec, cfg config) (result, map[string]int, error) {
	corp := generate(sp, cfg.seed)
	n := setups
	if cfg.smoke {
		n = 1
	}
	var setupSecs []float64
	l := &launch{} // replaced per set-up; the last one holds the window
	broke := func(err error) (result, map[string]int, error) {
		return newResult(endToEnd, nil, l.attempted.Load(), l.failed.Load(), false), nil, err
	}
	for i := 0; i < n; i++ {
		// Every set-up starts from a collected heap with its free pages
		// returned to the OS; otherwise Pack's speed depends on what the
		// previous repetition left mapped, and setup_s swings by 3x.
		debug.FreeOSMemory()
		bundle, packDur, err := corp.pack(sp)
		if err != nil {
			return broke(err)
		}
		l = &launch{sp: sp, seed: cfg.seed, corp: corp, bundle: bundle}
		if i == n-1 {
			corp.dropInputs()
			l.timed = time.Duration(cfg.seconds * float64(time.Second))
		}
		t0 := time.Now()
		if err := l.run(); err != nil {
			return broke(err)
		}
		setupSecs = append(setupSecs, (packDur + l.ready.Sub(t0)).Seconds())
	}
	fmt.Fprintf(os.Stderr, "bench: %s: set-ups took %.3g s\n", sp.name, setupSecs)
	w := &l.win
	files := float64(w.files)
	steps := durs(w.steps, time.Millisecond)
	if tail := supportedTail(len(steps)); tail < 0.95 {
		warnf("%d steps support only p%g; step_p95_ms is read off fewer than ten samples beyond it", len(steps), tail*100)
	}
	values := map[string]float64{
		"files_per_s":       w.filesPerSec(),
		"step_p50_ms":       median(steps),
		"step_p95_ms":       quantile(steps, 0.95),
		"cpu_ms_per_file":   ratio(float64(w.to.cpu-w.from.cpu)/float64(time.Millisecond), files),
		"alloc_kb_per_file": ratio(float64(w.to.alloc-w.from.alloc)/1e3, files),
		"rss_mb":            float64(w.rssMax) / 1e6,
		"setup_s":           median(setupSecs),
	}
	samples := map[string]int{
		"files_per_s": len(w.epochWalls), "step_p50_ms": len(steps), "step_p95_ms": len(steps),
		"rss_mb": len(w.epochWalls), "setup_s": len(setupSecs),
	}
	if !sp.coldOpens {
		fmt.Fprintf(os.Stderr, "bench: %s: %d checkpoints read back on the rank that did not write them\n", sp.name, l.crossRead.Load())
	}
	return newResult(endToEnd, values, l.attempted.Load(), l.failed.Load(), true), samples, nil
}

// runTraced is the traced run: from one pack, an untraced window (the
// base of trace.overhead_frac and of the open budget), a traced window
// with the observer attached, then the isolated probes.
func runTraced(sp spec, cfg config) (result, map[string]int, error) {
	corp := generate(sp, cfg.seed)
	bundle, packDur, err := corp.pack(sp)
	half := time.Duration(cfg.seconds / 2 * float64(time.Second))
	plain := &launch{sp: sp, seed: cfg.seed, corp: corp, bundle: bundle, timed: half}
	traced := &launch{sp: sp, seed: cfg.seed, corp: corp, bundle: bundle, timed: half, obs: newObserver()}
	lo := layerOut{values: make(map[string]float64), samples: make(map[string]int)}
	out := lo.values
	done := func(shapeOK bool, err error) (result, map[string]int, error) {
		return newResult(perLayer, out, plain.attempted.Load()+traced.attempted.Load(),
			plain.failed.Load()+traced.failed.Load(), shapeOK), lo.samples, err
	}
	if err != nil {
		return done(false, err)
	}
	corp.dropInputs()
	for _, l := range []*launch{plain, traced} {
		if err := l.run(); err != nil {
			return done(false, err)
		}
	}
	w := &traced.win
	traced.obs.spanMetrics(sp, w, lo)
	traced.obs.registryMetrics(sp, w, lo)
	out["trace.overhead_frac"] = 1 - ratio(w.filesPerSec(), plain.win.filesPerSec())
	out["pack.build_mb_per_s"] = ratio(float64(corp.rawBytes)/1e6, packDur.Seconds())

	frame, err := localProbes(sp, bundle, out)
	if err == nil {
		err = transportProbes(sp, frame, out)
	}
	var probeMount time.Duration
	if err == nil {
		probeMount, err = storeProbes(sp, corp, bundle, out)
	}
	if err != nil {
		return done(false, err)
	}
	lo.p50("fanstore.store.mount_ms", durs([]time.Duration{plain.mountDur, traced.mountDur, probeMount}, time.Millisecond))
	if sp.coldOpens {
		budget(os.Stdout, out, median(durs(plain.win.steps, time.Microsecond)))
	}

	path := filepath.Join(cfg.traceDir, sp.name+".trace.json")
	if err := writeChrome(path, traced.obs.rec, traced.obs.tracers[:], w.from.at, w.to.at); err != nil {
		warnf("chrome trace not written: %v", err)
	} else {
		fmt.Fprintf(os.Stderr, "bench: %s: trace written to %s (%d bench spans kept, %d beyond the cap)\n",
			sp.name, path, len(traced.obs.rec.kept), traced.obs.rec.dropped)
	}

	shapeOK := checkShape(sp, out, cfg.smoke)
	fmt.Printf("shape_ok %v\n", shapeOK)
	return done(shapeOK, nil)
}

// checkShape verifies from the traced run that the workload still
// exercises the layer it exists for; a workload that silently stopped
// doing so would make every later comparison on it meaningless.
func checkShape(sp spec, m map[string]float64, smoke bool) bool {
	ok := true
	for _, e := range sp.shape {
		if v := m[e.metric]; !(smoke && e.rate) && (v < e.min || v > e.max) {
			ok = false
			warnf("%s: shape: %s = %g, want within [%g, %g]", sp.name, e.metric, v, e.min, e.max)
		}
	}
	return ok
}

// budgetRows are the layers on the path of one remote open, each with the
// probe that times it in isolation and the factor that brings it to
// microseconds.
var budgetRows = []struct {
	layer, metric string
	toUS          float64
}{
	{"fs shim + meta + cache pin + copy-out", "fanstore.fs.open_hit_us", 1},
	{"rpc round trip carrying the object", "rpc.call_us", 1},
	{"backend lookup", "fanstore.backend.get_ns", 1e-3},
	{"decode pool dispatch", "decomp.dispatch_us", 1},
	{"codec", "codec.decode_us", 1},
}

// budget sums the isolated layer costs of a remote open into
// budget.sum_us, sets budget.unexplained_frac against the end-to-end
// median p50 (microseconds), and prints the table.
func budget(w io.Writer, m map[string]float64, p50 float64) {
	fmt.Fprintf(w, "budget of a remote open (open_cold, untraced p50 %.1f us)\n", p50)
	var sum float64
	for _, row := range budgetRows {
		us := m[row.metric] * row.toUS
		sum += us
		fmt.Fprintf(w, "  %-40s %8.2f us  (%s)\n", row.layer, us, row.metric)
	}
	m["budget.sum_us"], m["budget.unexplained_frac"] = sum, ratio(p50-sum, p50)
	fmt.Fprintf(w, "  %-40s %8.2f us\n  %-40s %8.3f\n", "sum", sum, "unexplained share of p50", m["budget.unexplained_frac"])
}
