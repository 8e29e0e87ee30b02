package main

import "testing"

// TestSmoke runs every workload's e2e run and traced run at -smoke
// scale: every byte checked, every declared metric reported, the shape
// checks that do not depend on rates holding.
func TestSmoke(t *testing.T) {
	for _, sp := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{seed: 1, seconds: 0.3, smoke: true, traceDir: t.TempDir()}
			defs, run := endToEnd, runE2E
			if traced {
				defs, run = perLayer, runTraced
			}
			res, _, err := run(sp.smoke(), cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sp.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", sp.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", sp.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or in unit %q", sp.name, traced, d.Name, m.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must never be 0", sp.name, d.Name, m.Value)
				}
			}
		}
	}
}
