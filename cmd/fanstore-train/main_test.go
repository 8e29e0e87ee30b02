package main

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"

	"fanstore"
)

// TestPlanIsDefaultAndWeightsMatchDemandOnly runs the command as shipped
// and with -plan=false: with no staging flag every epoch builds and
// stages a plan, demand-only stages nothing, and both deliver the same
// bytes — the per-epoch weights are a CRC over every delivered sample.
func TestPlanIsDefaultAndWeightsMatchDemandOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches subprocesses")
	}
	bin := filepath.Join(t.TempDir(), "fanstore-train")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	weightsRE := regexp.MustCompile(`epoch +\d+: weights=[0-9a-f]{8}`)
	run := func(args ...string) (weights []string, staged int64) {
		t.Helper()
		out, err := exec.Command(bin, append([]string{"-files", "48", "-stats-json"}, args...)...).Output()
		if err != nil {
			t.Fatalf("fanstore-train %v: %v\n%s", args, err, out)
		}
		for _, m := range weightsRE.FindAll(out, -1) {
			weights = append(weights, string(m))
		}
		var snap struct {
			Counters map[string]int64 `json:"counters"`
		}
		out = bytes.TrimSpace(out) // the snapshot is the last line
		if err := json.Unmarshal(out[bytes.LastIndexByte(out, '\n')+1:], &snap); err != nil {
			t.Fatalf("fanstore-train %v: -stats-json line: %v\n%s", args, err, out)
		}
		return weights, snap.Counters["prefetch.plan.staged"]
	}
	planned, staged := run()
	demand, demandStaged := run("-plan=false")
	if staged <= 0 {
		t.Errorf("default run staged %d files through the epoch plan, want > 0", staged)
	}
	if demandStaged != 0 {
		t.Errorf("-plan=false staged %d files, want 0", demandStaged)
	}
	if len(planned) != 3 {
		t.Fatalf("default run printed %d epoch weights, want 3: %v", len(planned), planned)
	}
	for i := range planned {
		if i >= len(demand) || planned[i] != demand[i] {
			t.Fatalf("epoch weights differ:\n planned %v\n demand  %v", planned, demand)
		}
	}
}

func TestPolicyByName(t *testing.T) {
	cases := map[string]fanstore.Policy{
		"fifo": fanstore.FIFO, "LRU": fanstore.LRU, "Immediate": fanstore.Immediate,
	}
	for in, want := range cases {
		got, ok := policyByName(in)
		if !ok || got != want {
			t.Errorf("policyByName(%q) = %v, %v", in, got, ok)
		}
	}
	if _, ok := policyByName("random"); ok {
		t.Error("unknown policy accepted")
	}
}

func TestLE32RoundTrip(t *testing.T) {
	for _, v := range []uint32{0, 1, 0xdeadbeef, 1 << 31} {
		if le32(u32le(v)) != v {
			t.Errorf("le32(u32le(%#x)) mismatch", v)
		}
	}
}
