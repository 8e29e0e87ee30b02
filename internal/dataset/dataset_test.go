package dataset

import (
	"bytes"
	"testing"

	"fanstore/internal/codec"
)

func TestDeterministic(t *testing.T) {
	for _, k := range Kinds() {
		g := Generator{Kind: k, Seed: 42, Size: 8 << 10}
		a := g.Bytes(3)
		b := g.Bytes(3)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: generation is not deterministic", k)
		}
		c := Generator{Kind: k, Seed: 43, Size: 8 << 10}.Bytes(3)
		if bytes.Equal(a, c) {
			t.Fatalf("%s: different seeds produced identical data", k)
		}
		d := g.Bytes(4)
		if bytes.Equal(a, d) {
			t.Fatalf("%s: different indices produced identical data", k)
		}
	}
}

func TestSizesAndPaths(t *testing.T) {
	for _, k := range Kinds() {
		g := Generator{Kind: k, Seed: 1, Size: 4096}
		files := g.Files(20)
		if len(files) != 20 {
			t.Fatalf("%s: got %d files", k, len(files))
		}
		seen := make(map[string]bool)
		for _, f := range files {
			if len(f.Data) != 4096 {
				t.Fatalf("%s: file size %d, want 4096", k, len(f.Data))
			}
			if seen[f.Path] {
				t.Fatalf("%s: duplicate path %s", k, f.Path)
			}
			seen[f.Path] = true
		}
	}
	// Default sizes follow the Table II averages within the variance band.
	for _, k := range Kinds() {
		g := Generator{Kind: k, Seed: 1}
		s := g.fileSize(0)
		avg := int(k.Spec().AvgSize)
		if s < avg*8/10 || s > avg*12/10 {
			t.Fatalf("%s: default size %d not near spec average %d", k, s, avg)
		}
	}
}

func TestSpecTable2(t *testing.T) {
	// Spot-check Table II numbers.
	if s := ImageNet.Spec(); s.NumFiles != 1_300_000 || s.NumDirs != 2002 {
		t.Fatalf("ImageNet spec mismatch: %+v", s)
	}
	if s := Tokamak.Spec(); s.AvgSize != 1200 {
		t.Fatalf("Tokamak spec mismatch: %+v", s)
	}
	if len(Kinds()) != 6 {
		t.Fatalf("expected 6 datasets, got %d", len(Kinds()))
	}
}

// TestCompressibilityBands verifies each synthetic dataset lands in the
// compressibility band the paper reports for its real counterpart
// (Table IV): ImageNet incompressible; Lung the most compressible; the
// imaging/text datasets in between, with lzma-class above fast-LZ.
func TestCompressibilityBands(t *testing.T) {
	ratio := func(k Kind, name string) float64 {
		g := Generator{Kind: k, Seed: 7, Size: 128 << 10}
		cdc := codec.MustGet(name).Codec
		var raw, comp int
		for i := 0; i < 3; i++ {
			b := g.Bytes(i)
			c, err := cdc.Compress(nil, b)
			if err != nil {
				t.Fatal(err)
			}
			raw += len(b)
			comp += len(c)
		}
		return float64(raw) / float64(comp)
	}

	if r := ratio(ImageNet, "lzma"); r > 1.05 {
		t.Errorf("ImageNet should be incompressible, lzma ratio %.2f", r)
	}
	if r := ratio(Lung, "lzma"); r < 5 {
		t.Errorf("Lung lzma ratio %.2f, want >= 5 (paper: 10.8)", r)
	}
	if r := ratio(Lung, "lz4hc"); r < 3.5 {
		t.Errorf("Lung lz4hc ratio %.2f, want >= 3.5 (paper: 6.5)", r)
	}
	if r := ratio(EM, "lzma"); r < 1.8 {
		t.Errorf("EM lzma ratio %.2f, want >= 1.8 (paper: 4.0)", r)
	}
	if r := ratio(Language, "lzma"); r < 2 {
		t.Errorf("Language lzma ratio %.2f, want >= 2 (paper: 4.0)", r)
	}
	if r := ratio(Tokamak, "lz4hc"); r < 1.5 {
		t.Errorf("Tokamak lz4hc ratio %.2f, want >= 1.5 (paper: 3.0)", r)
	}
	if r := ratio(Astro, "lzma"); r < 1.7 {
		t.Errorf("Astro lzma ratio %.2f, want >= 1.7 (paper: 3.4)", r)
	}
	// Ordering: lzma-class beats fast LZ on the compressible datasets.
	for _, k := range []Kind{EM, Lung, Language} {
		if ratio(k, "lzma") < ratio(k, "lzsse8")*0.98 {
			t.Errorf("%s: lzma ratio below lzsse8", k)
		}
	}
}

func TestKindByName(t *testing.T) {
	for in, want := range map[string]Kind{
		"EM": EM, "em": EM, "tif": EM,
		"Tokamak": Tokamak, "rs": Tokamak, "RS": Tokamak, "npz": Tokamak,
		"LUNG": Lung, "Lung image": Lung,
		"astro": Astro, "Astronomy": Astro, "fits": Astro,
		"imagenet": ImageNet, "jpg": ImageNet,
		"language": Language, "text": Language, "txt": Language,
	} {
		if got, ok := KindByName(in); !ok || got != want {
			t.Errorf("KindByName(%q) = %v, %v, want %v", in, got, ok, want)
		}
	}
	for _, bad := range []string{"nope", "bogus", ""} {
		if _, ok := KindByName(bad); ok {
			t.Errorf("unknown dataset %q accepted", bad)
		}
	}
}
