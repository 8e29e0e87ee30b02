package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// manifest mirrors BENCHMARK.json, the benchmark's declaration at the
// root of the repository.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

const manifestPath = "../BENCHMARK.json"

func wantManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: 10,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, sp := range workloads {
		m.Workloads = append(m.Workloads, workloadDecl{sp.name, sp.why})
	}
	return m
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the tables the
// program reports from, and inside the limits the contract sets.
// BENCH_WRITE_MANIFEST=1 rewrites the file from the tables instead.
func TestBenchmarkJSON(t *testing.T) {
	want := wantManifest()
	if os.Getenv("BENCH_WRITE_MANIFEST") != "" {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		if err := enc.Encode(want); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(manifestPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	var got manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the program's tables\n got: %+v\nwant: %+v", got, want)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(got.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range got.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(got.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(got.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	setup := false
	for _, d := range got.EndToEnd {
		name(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g, want in (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || d == metricDef{Name: "setup_s", Unit: "s", Better: "lower", Bound: d.Bound}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range got.PerLayer {
		name(d.Name)
		if d.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", d.Name)
		}
	}
	for _, d := range append(append([]metricDef{}, got.EndToEnd...), got.PerLayer...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is outside [A-Za-z0-9_/%%.-]{1,16}", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1 to 60", got.RunSeconds)
	}
	if len(got.Command) == 0 || len(got.Command) > 32 {
		t.Errorf("command has %d strings, want 1 to 32", len(got.Command))
	}
}
