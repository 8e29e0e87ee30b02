package fanstore

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestPlacementGolden replays testdata/placement_golden.json: 500 seeded
// cases (0–39 partitions, empty ones included, 1–9 nodes, capacity
// 500–6500) captured from the two planners that existed before
// PlanPlacement became PlanDelta's nothing-placed-yet case. The one
// planner must reproduce every row — same owners, same ring replicas,
// same refusals — with no exemptions.
func TestPlacementGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/placement_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		Sizes      []int64 `json:"sizes"`
		Nodes      int     `json:"nodes"`
		Capacity   int64   `json:"capacity"`
		Infeasible bool    `json:"infeasible"`
		Own        [][]int `json:"own"`
		Replicas   [][]int `json:"replicas"`
	}
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 500 {
		t.Fatalf("golden holds %d rows, want 500", len(rows))
	}
	same := func(a, b [][]int) bool { return slices.EqualFunc(a, b, slices.Equal[[]int]) }
	for i, row := range rows {
		p, err := PlanPlacement(row.Sizes, row.Nodes, row.Capacity)
		if (err != nil) != row.Infeasible {
			t.Fatalf("row %d: err %v, golden infeasible=%v", i, err, row.Infeasible)
		}
		if err == nil && (!same(p.Own, row.Own) || !same(p.Replicas, row.Replicas)) {
			t.Fatalf("row %d (%d partitions, %d nodes, capacity %d):\n got own %v replicas %v\nwant own %v replicas %v",
				i, len(row.Sizes), row.Nodes, row.Capacity, p.Own, p.Replicas, row.Own, row.Replicas)
		}
	}
}
