package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"text/tabwriter"
)

// suiteDoc is the result file of a suite: every workload's e2e and
// traced run, repeated Runs times. -compare reads two of them.
type suiteDoc struct {
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Seed       int64   `json:"seed"` // run i uses Seed+i
	Seconds    float64 `json:"seconds"`
	Runs       int     `json:"runs"`
	// Workloads maps workload name to its results.
	Workloads map[string]*workloadDoc `json:"workloads"`
}

// workloadDoc holds one value per run for every metric of a workload.
type workloadDoc struct {
	EndToEnd  map[string][]float64 `json:"end_to_end"`
	PerLayer  map[string][]float64 `json:"per_layer"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
}

// runSuite runs every workload's e2e run and traced run, each in a
// process of its own so heap, GC state and resident set do not leak from
// one to the next, and prints the medians.
func runSuite(cfg config, runs int, outPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	doc := suiteDoc{
		GoVersion: runtime.Version(), Commit: commit(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Seed: cfg.seed, Seconds: cfg.seconds, Runs: runs, Workloads: make(map[string]*workloadDoc),
	}
	broken := false
	for run := 0; run < runs; run++ {
		for _, sp := range workloads {
			wd := doc.Workloads[sp.name]
			if wd == nil {
				wd = &workloadDoc{EndToEnd: map[string][]float64{}, PerLayer: map[string][]float64{}}
				doc.Workloads[sp.name] = wd
			}
			for trace, into := range []map[string][]float64{wd.EndToEnd, wd.PerLayer} {
				args := []string{"-workload", sp.name, "-seed", fmt.Sprint(cfg.seed + int64(run)),
					"-seconds", fmt.Sprint(cfg.seconds), "-trace", fmt.Sprint(trace), "-trace-dir", cfg.traceDir}
				if cfg.smoke {
					args = append(args, "-smoke")
				}
				fmt.Printf("== run %d/%d: %s trace=%d\n", run+1, runs, sp.name, trace)
				res, err := runChild(self, args)
				if err != nil {
					return fmt.Errorf("%s trace=%d: %w", sp.name, trace, err)
				}
				for name, m := range res.Metrics {
					into[name] = append(into[name], m.Value)
				}
				wd.Attempted += res.Attempted
				wd.Failed += res.Failed
				broken = broken || !res.Correct
			}
		}
	}
	printSuite(os.Stdout, &doc)
	if outPath != "" {
		data, err := json.MarshalIndent(&doc, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if broken {
		return errors.New("a run reported failed operations or a broken workload shape")
	}
	return nil
}

// runChild runs one workload in a child process, passing its output
// through, and parses the result line. A child that exits non-zero but
// still printed a result is reported through the result, not an error.
func runChild(self string, args []string) (result, error) {
	var stdout bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	res, err := parseResult(stdout.Bytes())
	if err != nil {
		if runErr != nil {
			err = runErr
		}
		return result{}, err
	}
	return res, nil
}

// parseResult decodes the last line of a workload run's standard output.
func parseResult(stdout []byte) (result, error) {
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	dec := json.NewDecoder(bytes.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		return result{}, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}

// commit names the checkout for the record; "unknown" outside git.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func printSuite(w io.Writer, doc *suiteDoc) {
	fmt.Fprintf(w, "\n%s commit %s GOMAXPROCS=%d nproc=%d seed=%d seconds=%g runs=%d\n",
		doc.GoVersion, doc.Commit, doc.GOMAXPROCS, doc.NProc, doc.Seed, doc.Seconds, doc.Runs)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tunit\tspread\tbound")
	for _, sp := range workloads {
		wd := doc.Workloads[sp.name]
		if wd == nil {
			continue
		}
		for _, d := range endToEnd {
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t%.3f\t%.2f\n", sp.name, d.Name, median(wd.EndToEnd[d.Name]), d.Unit, iqrShare(wd.EndToEnd[d.Name]), d.Bound)
		}
		fmt.Fprintf(tw, "%s\tfail_frac\t%g\tratio\t-\t0\n", sp.name, ratio(float64(wd.Failed), float64(wd.Attempted)))
	}
	tw.Flush() // stdout; a failed write has nowhere else to be reported
}

// worsening is the share of the base by which a metric got worse;
// negative when it improved.
func worsening(d metricDef, base, now float64) float64 {
	if base == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (base - now) / base
	}
	return (now - base) / base
}

// verdict judges one end-to-end metric of one workload between two sets
// of runs: "unresolved" when either set's own spread is wider than the
// bound, "regressed" when the medians differ for the worse by more than
// the bound, else "ok".
func verdict(d metricDef, base, now []float64) string {
	switch {
	case iqrShare(base) > d.Bound || iqrShare(now) > d.Bound:
		return "unresolved"
	case worsening(d, median(base), median(now)) > d.Bound:
		return "regressed"
	}
	return "ok"
}

func readSuite(path string) (*suiteDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc suiteDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// compareFiles prints, per workload and metric, the new median as a
// ratio of the base's, the bound and a verdict. It reports false when
// any metric regressed or the share of failed operations rose.
func compareFiles(w io.Writer, basePath, newPath string) (bool, error) {
	base, err := readSuite(basePath)
	if err != nil {
		return false, err
	}
	now, err := readSuite(newPath)
	if err != nil {
		return false, err
	}
	return compareDocs(w, base, now), nil
}

func compareDocs(w io.Writer, base, now *suiteDoc) bool {
	ok := true
	fmt.Fprintf(w, "base: commit %s, %d runs, GOMAXPROCS=%d; new: commit %s, %d runs, GOMAXPROCS=%d\n",
		base.Commit, base.Runs, base.GOMAXPROCS, now.Commit, now.Runs, now.GOMAXPROCS)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tnew\tnew/base\tspread base\tspread new\tbound\tverdict")
	for _, sp := range workloads {
		b, n := base.Workloads[sp.name], now.Workloads[sp.name]
		if b == nil || n == nil {
			continue
		}
		for _, d := range endToEnd {
			bv, nv := b.EndToEnd[d.Name], n.EndToEnd[d.Name]
			v := verdict(d, bv, nv)
			ok = ok && v != "regressed"
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.3f\t%.3f\t%.3f\t%.2f\t%s\n", sp.name, d.Name,
				median(bv), median(nv), ratio(median(nv), median(bv)), iqrShare(bv), iqrShare(nv), d.Bound, v)
		}
		bf, nf := ratio(float64(b.Failed), float64(b.Attempted)), ratio(float64(n.Failed), float64(n.Attempted))
		v := "ok"
		if nf > bf {
			v, ok = "regressed", false
		}
		fmt.Fprintf(tw, "%s\tfail_frac\t%g\t%g\t-\t-\t-\t0\t%s\n", sp.name, bf, nf, v)
	}
	fmt.Fprintln(tw, "\nworkload\tlayer metric\tbase\tnew\tnew/base\t\t\t\t")
	for _, sp := range workloads {
		b, n := base.Workloads[sp.name], now.Workloads[sp.name]
		if b == nil || n == nil {
			continue
		}
		for _, d := range perLayer {
			bm, nm := median(b.PerLayer[d.Name]), median(n.PerLayer[d.Name])
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.3f\t\t\t\t\n", sp.name, d.Name, bm, nm, ratio(nm, bm))
		}
	}
	tw.Flush() // the caller's writer; a failed write has nowhere else to be reported
	return ok
}
