package cluster

import (
	"testing"
	"time"

	"fanstore/internal/dataset"
)

func TestPlatformProfiles(t *testing.T) {
	// §VII-A anchors.
	if GTX.Nodes != 16 || GTX.GPUsPerNode != 4 || GTX.LocalStorageGB != 60 {
		t.Fatalf("GTX profile: %+v", GTX)
	}
	if V100.Nodes != 4 || V100.LocalStorageGB != 256 {
		t.Fatalf("V100 profile: %+v", V100)
	}
	if CPU.Nodes != 512 || CPU.GPUsPerNode != 0 || CPU.LocalStorageGB != 144 {
		t.Fatalf("CPU profile: %+v", CPU)
	}
	if GTX.Procs(16) != 64 || CPU.Procs(512) != 512 {
		t.Fatal("Procs miscounts")
	}
	if len(Clusters()) != 3 || len(Apps()) != 4 {
		t.Fatal("inventory mismatch")
	}
}

func TestTable6Bands(t *testing.T) {
	// Table VI: FanStore read perf (4 nodes) within ~2x of the paper's
	// measured rows — the selector only needs the right magnitude.
	cases := []struct {
		c       Cluster
		size    int64
		tpt     float64 // files/s, paper
		bandLow float64
		bandHi  float64
	}{
		{GTX, 512 << 10, 9469, 0.5, 2.0},
		{GTX, 2 << 20, 3158, 0.5, 2.0},
		{V100, 2 << 20, 5026, 0.5, 2.0},
		{CPU, 1 << 10, 29103, 0.5, 2.0},
	}
	for _, tc := range cases {
		perf := tc.c.FanStorePerf(tc.size)
		if perf.TptRead < tc.tpt*tc.bandLow || perf.TptRead > tc.tpt*tc.bandHi {
			t.Errorf("%s@%d: Tpt %.0f files/s vs paper %.0f", tc.c.Name, tc.size, perf.TptRead, tc.tpt)
		}
		// Consistency: Bdw = Tpt x file size (as in Table VI's rows).
		wantBdw := perf.TptRead * float64(tc.size) / 1e6
		if perf.BdwRead != wantBdw {
			t.Errorf("%s@%d: Bdw inconsistent", tc.c.Name, tc.size)
		}
	}
}

func TestTable5Profiles(t *testing.T) {
	if SRGANonGTX.TIter != 9689*time.Millisecond || SRGANonGTX.CBatch != 256 || SRGANonGTX.SBatchMB != 410 || !SRGANonGTX.Sync {
		t.Fatalf("SRGAN/GTX: %+v", SRGANonGTX)
	}
	if SRGANonV100.TIter != 2416*time.Millisecond {
		t.Fatalf("SRGAN/V100: %+v", SRGANonV100)
	}
	if FRNNonCPU.TIter != 655*time.Millisecond || FRNNonCPU.CBatch != 512 || FRNNonCPU.Sync {
		t.Fatalf("FRNN/CPU: %+v", FRNNonCPU)
	}
	// Implied file sizes: SRGAN ~1.6 MB (EM), FRNN ~1.2 KB (Tokamak).
	if s := SRGANonGTX.FileSizeBytes(); s < 1_400_000 || s > 1_800_000 {
		t.Fatalf("SRGAN file size %d", s)
	}
	if s := FRNNonCPU.FileSizeBytes(); s < 1000 || s > 1400 {
		t.Fatalf("FRNN file size %d", s)
	}
	// Selector profile conversion.
	sp := FRNNonCPU.SelectorProfile()
	if sp.IO.String() != "async" || sp.CBatch != 512 {
		t.Fatalf("selector profile: %+v", sp)
	}
}

func TestMinNodesForData(t *testing.T) {
	// The §I example: 140 GB on 60 GB nodes.
	if n := GTX.MinNodesForData(140, 1); n != 3 {
		t.Fatalf("uncompressed: %d nodes, want 3", n)
	}
	if n := GTX.MinNodesForData(140, 2.4); n != 1 {
		t.Fatalf("compressed 2.4x: %d nodes, want 1", n)
	}
	// SRGAN's 500 GB EM dataset: 9 nodes raw, 4 at ratio 2.1 (§VII-E1
	// runs on 4 nodes with 240 GB aggregate).
	if n := GTX.MinNodesForData(500, 1); n != 9 {
		t.Fatalf("EM raw: %d nodes", n)
	}
	if n := GTX.MinNodesForData(500, 2.1); n != 4 {
		t.Fatalf("EM at 2.1x: %d nodes", n)
	}
	if n := GTX.MinNodesForData(0.001, 1); n != 1 {
		t.Fatalf("tiny dataset: %d nodes", n)
	}
}

// TestCasesNameTheirDataset: the commands resolve a case's dataset from
// App.FileKind, so every case must name one Table II knows and carry at
// least one candidate compressor.
func TestCasesNameTheirDataset(t *testing.T) {
	if len(Cases) != 5 {
		t.Fatalf("%d cases, want the five of §VII", len(Cases))
	}
	for name, c := range Cases {
		if _, ok := dataset.KindByName(c.App.FileKind); !ok {
			t.Errorf("case %s: app %s trains on unknown dataset %q", name, c.App.Name, c.App.FileKind)
		}
		if len(c.Candidates) == 0 || c.Cluster.Name == "" {
			t.Errorf("case %s is incomplete: %+v", name, c)
		}
	}
}
