package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "step_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "files_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name      string
		d         metricDef
		base, now []float64
		want      string
	}{
		{"same", lower, steady, steady, "ok"},
		{"lower-is-better rose 20%", lower, steady, []float64{120, 121, 119, 120, 120}, "regressed"},
		{"lower-is-better fell 20%", lower, steady, []float64{80, 81, 79, 80, 80}, "ok"},
		{"higher-is-better fell 20%", higher, steady, []float64{80, 81, 79, 80, 80}, "regressed"},
		{"higher-is-better rose 20%", higher, steady, []float64{120, 121, 119, 120, 120}, "ok"},
		{"within the bound", lower, steady, []float64{108, 109, 107, 108, 108}, "ok"},
		{"spread wider than the bound", lower, steady, []float64{80, 100, 120, 140, 160}, "unresolved"},
		{"single runs have no spread", lower, []float64{100}, []float64{150}, "regressed"},
	} {
		if got := verdict(c.d, c.base, c.now); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func suiteWith(files float64, failed int64) *suiteDoc {
	wd := &workloadDoc{EndToEnd: map[string][]float64{}, PerLayer: map[string][]float64{}, Attempted: 1000, Failed: failed}
	for _, d := range endToEnd {
		wd.EndToEnd[d.Name] = []float64{1, 1, 1}
	}
	wd.EndToEnd["files_per_s"] = []float64{files, files, files}
	return &suiteDoc{Runs: 3, Workloads: map[string]*workloadDoc{"train_lz": wd}}
}

func TestCompareDocs(t *testing.T) {
	var out bytes.Buffer
	if !compareDocs(&out, suiteWith(1000, 0), suiteWith(950, 0)) {
		t.Errorf("a 5%% drop within a 10%% bound must pass:\n%s", out.String())
	}
	out.Reset()
	if compareDocs(&out, suiteWith(1000, 0), suiteWith(700, 0)) || !strings.Contains(out.String(), "regressed") {
		t.Errorf("a 30%% drop must be reported as regressed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "0.700") {
		t.Errorf("the ratio to the base must be printed:\n%s", out.String())
	}
	out.Reset()
	if compareDocs(&out, suiteWith(1000, 0), suiteWith(1000, 1)) {
		t.Errorf("a higher share of failed operations must fail the comparison:\n%s", out.String())
	}
}

func TestResultRoundTrip(t *testing.T) {
	values := map[string]float64{"files_per_s": 2585.6320688188603, "setup_s": 1.97}
	res := newResult(endToEnd, values, 14476, 0, true)
	if len(res.Metrics) != len(endToEnd) {
		t.Fatalf("%d metrics reported, want every one of %d", len(res.Metrics), len(endToEnd))
	}
	var out bytes.Buffer
	out.WriteString("metric  value\nfiles_per_s 1\n")
	if err := emit(&out, res); err != nil {
		t.Fatal(err)
	}
	back, err := parseResult(out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !back.Correct || back.Attempted != 14476 || back.Failed != 0 ||
		back.Metrics["files_per_s"] != (measured{2585.6320688188603, "files/s"}) ||
		back.Metrics["step_p50_ms"] != (measured{0, "ms"}) {
		t.Errorf("round trip changed the result: %+v", back)
	}
	if newResult(endToEnd, values, 10, 1, true).Correct {
		t.Error("a run with failed operations is not correct")
	}
	if _, err := parseResult([]byte("no json here\n")); err == nil {
		t.Error("a missing result line must be an error")
	}
}
