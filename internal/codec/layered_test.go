package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// layeredTestSrc returns a compressible byte payload for layered tests.
func layeredTestSrc(n int) []byte {
	rng := rand.New(rand.NewSource(7))
	src := make([]byte, n)
	v := 100.0
	for i := range src {
		v += rng.Float64()*6 - 3
		src[i] = byte(int(v))
	}
	return src
}

// layeredFloatSrc returns a smooth float32 signal as little-endian bytes —
// the payload class the LayerFloat scheme targets.
func layeredFloatSrc(n int) []byte {
	src := make([]byte, 4*n)
	for i := 0; i < n; i++ {
		v := float32(math.Sin(float64(i)/40) + 0.1*math.Sin(float64(i)/7))
		binary.LittleEndian.PutUint32(src[4*i:], math.Float32bits(v))
	}
	return src
}

// TestLayeredRoundTripAllConfigs is the round-trip-equivalence acceptance
// gate: with every registry configuration as the inner layer codec, the
// full-layer decode is byte-identical to the original (exactly what the
// non-layered codec round trip yields), and every shorter layer prefix
// decodes without error to a full-length record.
func TestLayeredRoundTripAllConfigs(t *testing.T) {
	src := layeredTestSrc(2 << 10)
	for _, cfg := range Registry() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			cont, err := EncodeLayered(nil, src, LayerOptions{Layers: 3, Codecs: []string{cfg.Name}})
			if err != nil {
				t.Fatalf("EncodeLayered: %v", err)
			}
			out, k, err := DecodeLayered(nil, cont, 0)
			if err != nil {
				t.Fatalf("DecodeLayered: %v", err)
			}
			if k != 3 {
				t.Fatalf("decoded %d layers, want 3", k)
			}
			if !bytes.Equal(out, src) {
				t.Fatalf("full-fidelity decode differs from source")
			}
			ix, err := ParseLayerIndex(cont)
			if err != nil {
				t.Fatalf("ParseLayerIndex: %v", err)
			}
			if ix.PrefixSize(3) != len(cont) {
				t.Fatalf("PrefixSize(3)=%d, container is %d bytes", ix.PrefixSize(3), len(cont))
			}
			for lvl := 1; lvl <= 3; lvl++ {
				// Decode a true container prefix, cut at a layer boundary.
				prefix := cont[:ix.PrefixSize(lvl)]
				out, got, err := DecodeLayered(nil, prefix, 0)
				if err != nil {
					t.Fatalf("level %d: %v", lvl, err)
				}
				if got != lvl {
					t.Fatalf("level %d: decoded %d layers", lvl, got)
				}
				if len(out) != len(src) {
					t.Fatalf("level %d: %d bytes, want full length %d", lvl, len(out), len(src))
				}
				// The same fidelity via maxLayers on the whole container.
				capped, got2, err := DecodeLayered(nil, cont, lvl)
				if err != nil || got2 != lvl || !bytes.Equal(capped, out) {
					t.Fatalf("maxLayers=%d decode mismatch (err=%v, k=%d)", lvl, err, got2)
				}
			}
		})
	}
}

func TestLayeredBitsPrefixRefines(t *testing.T) {
	src := layeredTestSrc(8 << 10)
	cont, err := EncodeLayered(nil, src, LayerOptions{Layers: 4, Codecs: []string{"lzh-3"}})
	if err != nil {
		t.Fatal(err)
	}
	// Each additional layer adds lower bit-planes: the max per-byte error
	// must shrink monotonically and reach zero at full fidelity.
	prevMax := 256
	for lvl := 1; lvl <= 4; lvl++ {
		out, _, err := DecodeLayered(nil, cont, lvl)
		if err != nil {
			t.Fatalf("level %d: %v", lvl, err)
		}
		maxErr := 0
		for i := range src {
			d := int(src[i] ^ out[i])
			if d > maxErr {
				maxErr = d
			}
		}
		if maxErr >= prevMax && maxErr != 0 {
			t.Fatalf("level %d: max residual %d did not shrink from %d", lvl, maxErr, prevMax)
		}
		prevMax = maxErr
	}
	if prevMax != 0 {
		t.Fatalf("full fidelity residual %d, want 0", prevMax)
	}
}

func TestLayeredFloatScheme(t *testing.T) {
	src := layeredFloatSrc(16 << 10)
	const bound = 0.005
	cont, err := EncodeLayered(nil, src, LayerOptions{
		Layers: 3, Scheme: LayerFloat, FloatBound: bound, Codecs: []string{"lz4"},
	})
	if err != nil {
		t.Fatal(err)
	}
	full, k, err := DecodeLayered(nil, cont, 0)
	if err != nil || k != 3 {
		t.Fatalf("full decode: k=%d err=%v", k, err)
	}
	if !bytes.Equal(full, src) {
		t.Fatal("full-fidelity float decode is not exact")
	}
	base, _, err := DecodeLayered(nil, cont, 1)
	if err != nil {
		t.Fatalf("base decode: %v", err)
	}
	for i := 0; i+4 <= len(src); i += 4 {
		want := math.Float32frombits(binary.LittleEndian.Uint32(src[i:]))
		got := math.Float32frombits(binary.LittleEndian.Uint32(base[i:]))
		if d := float64(want - got); d > bound || d < -bound {
			t.Fatalf("float %d: base layer error %g exceeds bound %g", i/4, d, bound)
		}
	}
	// The bandwidth-proportional premise: the base-layer prefix of a
	// smooth float payload is a small fraction of the full container.
	ix, err := ParseLayerIndex(cont)
	if err != nil {
		t.Fatal(err)
	}
	if frac := float64(ix.PrefixSize(1)) / float64(len(cont)); frac > 1.0/3 {
		t.Fatalf("base layer is %.0f%% of the container, want <= 33%%", frac*100)
	}
}

func TestLayeredFloatFallsBackOnOddLength(t *testing.T) {
	src := []byte{1, 2, 3, 4, 5} // not a whole number of float32s
	cont, err := EncodeLayered(nil, src, LayerOptions{Layers: 2, Scheme: LayerFloat})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ParseLayerIndex(cont)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Scheme != LayerBits {
		t.Fatalf("scheme %d, want LayerBits fallback", ix.Scheme)
	}
	out, _, err := DecodeLayered(nil, cont, 0)
	if err != nil || !bytes.Equal(out, src) {
		t.Fatalf("round trip after fallback: %v", err)
	}
}

func TestLayeredAppendsToDst(t *testing.T) {
	src := layeredTestSrc(512)
	prefix := []byte("prefix")
	cont, err := EncodeLayered(append([]byte(nil), prefix...), src, LayerOptions{Layers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(cont, prefix) {
		t.Fatal("EncodeLayered did not append to dst")
	}
	out, _, err := DecodeLayered(append([]byte(nil), prefix...), cont[len(prefix):], 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(out, prefix) || !bytes.Equal(out[len(prefix):], src) {
		t.Fatal("DecodeLayered did not append to dst")
	}
}

func TestLayeredScratchMatches(t *testing.T) {
	src := layeredTestSrc(4 << 10)
	for _, name := range []string{"lz4", "huff", "lzr-2", "delta4+lzh-3"} {
		cont, err := EncodeLayered(nil, src, LayerOptions{Layers: 3, Codecs: []string{name}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s := NewScratch()
		for lvl := 1; lvl <= 3; lvl++ {
			plain, _, err := DecodeLayered(nil, cont, lvl)
			if err != nil {
				t.Fatalf("%s level %d: %v", name, lvl, err)
			}
			scr, _, err := DecodeLayeredScratch(s, nil, cont, lvl)
			if err != nil {
				t.Fatalf("%s level %d scratch: %v", name, lvl, err)
			}
			if !bytes.Equal(plain, scr) {
				t.Fatalf("%s level %d: scratch decode differs", name, lvl)
			}
		}
	}
}

func TestDecodeLayerBodyUpgrade(t *testing.T) {
	src := layeredFloatSrc(4 << 10)
	cont, err := EncodeLayered(nil, src, LayerOptions{Layers: 3, Scheme: LayerFloat})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ParseLayerIndex(cont)
	if err != nil {
		t.Fatal(err)
	}
	// Start from the base layer, then apply each refinement body on its
	// own: cut the extent out, decode it alone, XOR it on.
	rec, _, err := DecodeLayered(nil, cont, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < ix.Layers(); i++ {
		e := ix.Extents[i]
		body := cont[ix.HeaderLen+int(e.Off) : ix.HeaderLen+int(e.Off)+int(e.Len)]
		plane, err := DecodeLayerBody(nil, body, ix.OrigLen)
		if err != nil {
			t.Fatalf("layer %d: %v", i, err)
		}
		xorInto(rec, plane)
		want, _, err := DecodeLayered(nil, cont, i+1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec, want) {
			t.Fatalf("upgrade to level %d differs from direct decode", i+1)
		}
	}
	if !bytes.Equal(rec, src) {
		t.Fatal("fully upgraded record differs from source")
	}
}

func TestLayerIndexValidation(t *testing.T) {
	src := layeredTestSrc(256)
	cont, err := EncodeLayered(nil, src, LayerOptions{Layers: 3})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ParseLayerIndex(cont)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Layers() != 3 || ix.OrigLen != len(src) {
		t.Fatalf("index: layers=%d origLen=%d", ix.Layers(), ix.OrigLen)
	}
	if ix.LayersIn(len(cont)) != 3 || ix.LayersIn(ix.PrefixSize(2)) != 2 ||
		ix.LayersIn(ix.PrefixSize(1)-1) != 0 {
		t.Fatal("LayersIn miscounts complete layers")
	}

	corrupt := func(name string, mutate func(b []byte)) {
		b := append([]byte(nil), cont...)
		mutate(b)
		if _, err := ParseLayerIndex(b); err == nil {
			t.Errorf("%s: ParseLayerIndex accepted corrupt index", name)
		} else if _, _, err := DecodeLayered(nil, b, 0); err == nil {
			t.Errorf("%s: DecodeLayered accepted corrupt container", name)
		}
	}
	corrupt("bad magic", func(b []byte) { b[0] = 0 })
	corrupt("bad version", func(b []byte) { b[2] = 9 })
	corrupt("bad scheme", func(b []byte) { b[3] = 7 })
	corrupt("zero layers", func(b []byte) { b[4] = 0 })
	corrupt("too many layers", func(b []byte) { b[4] = MaxLayers + 1 })

	// Overlapping extents: rewrite layer 1's offset to point back into
	// layer 0. The parser must reject non-contiguous tables outright.
	hdrPos := 5
	_, n := binary.Uvarint(cont[hdrPos:])
	hdrPos += n // past origLen
	var rebuilt []byte
	rebuilt = append(rebuilt, cont[:hdrPos]...)
	var tmp [binary.MaxVarintLen64]byte
	for i := 0; i < 3; i++ {
		off, ln := ix.Extents[i].Off, ix.Extents[i].Len
		if i == 1 {
			off = 0 // overlaps layer 0
		}
		rebuilt = append(rebuilt, tmp[:binary.PutUvarint(tmp[:], uint64(off))]...)
		rebuilt = append(rebuilt, tmp[:binary.PutUvarint(tmp[:], uint64(ln))]...)
	}
	rebuilt = append(rebuilt, cont[ix.HeaderLen:]...)
	if _, err := ParseLayerIndex(rebuilt); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("overlapping extents: got %v, want ErrCorrupt", err)
	}

	// Truncation inside the index (not at a layer boundary) must error,
	// never panic; truncation inside a refinement body decodes only the
	// complete layers.
	for cut := 0; cut < ix.HeaderLen; cut++ {
		if _, err := ParseLayerIndex(cont[:cut]); err == nil {
			t.Fatalf("index truncated at %d accepted", cut)
		}
	}
	mid := ix.PrefixSize(2) + int(ix.Extents[2].Len)/2
	out, k, err := DecodeLayered(nil, cont[:mid], 0)
	if err != nil || k != 2 {
		t.Fatalf("mid-layer truncation: k=%d err=%v", k, err)
	}
	if len(out) != len(src) {
		t.Fatalf("truncated decode length %d", len(out))
	}
}

func TestLayeredEncodeOptionErrors(t *testing.T) {
	src := []byte("abc")
	if _, err := EncodeLayered(nil, src, LayerOptions{Layers: 1}); err == nil {
		t.Fatal("Layers=1 accepted")
	}
	if _, err := EncodeLayered(nil, src, LayerOptions{Layers: MaxLayers + 1}); err == nil {
		t.Fatal("Layers>MaxLayers accepted")
	}
	if _, err := EncodeLayered(nil, src, LayerOptions{Layers: 2, Codecs: []string{"no-such-codec"}}); err == nil {
		t.Fatal("unknown layer codec accepted")
	}
	if _, err := EncodeLayered(nil, src, LayerOptions{Layers: 2, Scheme: 9}); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}
