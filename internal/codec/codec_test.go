package codec

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"fanstore/internal/dataset"
)

// testInputs returns a spread of byte distributions covering the corner
// cases of every codec family: empty, tiny, runs, random (incompressible),
// text, smooth numeric arrays, and self-similar data.
func testInputs() map[string][]byte {
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 64<<10)
	rng.Read(random)

	runs := bytes.Repeat([]byte{0, 0, 0, 0, 1, 1, 2}, 8<<10)

	text := []byte(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 2000))

	smooth := make([]byte, 32<<10)
	v := 128.0
	for i := range smooth {
		v += rng.Float64()*4 - 2
		smooth[i] = byte(int(v))
	}

	smooth16 := make([]byte, 32<<10)
	x := 5000
	for i := 0; i+1 < len(smooth16); i += 2 {
		x += rng.Intn(9) - 4
		smooth16[i] = byte(x)
		smooth16[i+1] = byte(x >> 8)
	}

	periodic := make([]byte, 16<<10)
	for i := range periodic {
		periodic[i] = byte(i % 251)
	}

	return map[string][]byte{
		"empty":    {},
		"one":      {42},
		"two":      {0xff, 0x00},
		"tiny":     []byte("abc"),
		"allzero":  make([]byte, 4096),
		"runs":     runs,
		"random":   random,
		"text":     text,
		"smooth":   smooth,
		"smooth16": smooth16,
		"periodic": periodic,
	}
}

func TestRoundTripAllConfigs(t *testing.T) {
	inputs := testInputs()
	for _, cfg := range Registry() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			for name, src := range inputs {
				comp, err := cfg.Codec.Compress(nil, src)
				if err != nil {
					t.Fatalf("%s: compress(%s): %v", cfg.Name, name, err)
				}
				got, err := cfg.Codec.Decompress(nil, comp)
				if err != nil {
					t.Fatalf("%s: decompress(%s): %v", cfg.Name, name, err)
				}
				if !bytes.Equal(got, src) {
					t.Fatalf("%s: round trip mismatch on %s: got %d bytes, want %d", cfg.Name, name, len(got), len(src))
				}
			}
		})
	}
}

func TestRoundTripAppendsToDst(t *testing.T) {
	src := []byte("some payload that should append after the prefix")
	prefix := []byte("PREFIX")
	for _, name := range []string{"store", "rle", "lzf-2", "lz4", "lz4hc-9", "lzsse8-4", "huff", "lzh-5", "lzr-5", "flate-6", "lzw"} {
		cfg := MustGet(name)
		comp, err := cfg.Codec.Compress(append([]byte(nil), prefix...), src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.HasPrefix(comp, prefix) {
			t.Fatalf("%s: Compress did not append to dst", name)
		}
		got, err := cfg.Codec.Decompress(append([]byte(nil), prefix...), comp[len(prefix):])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, append(append([]byte(nil), prefix...), src...)) {
			t.Fatalf("%s: Decompress did not append to dst", name)
		}
	}
}

// TestRoundTripQuick property-tests round-trip on random inputs for one
// representative of every family, including filtered variants.
func TestRoundTripQuick(t *testing.T) {
	reps := []string{
		"store", "rle", "lzf-2", "lz4", "lz4fast-16", "lz4hc-6",
		"lzsse8-4", "lzsse16-2", "huff", "lzh-4", "lzr-3", "flate-3", "lzw",
		"delta2+lz4", "delta4+lzr-3", "delta4+huff",
	}
	for _, name := range reps {
		cfg := MustGet(name)
		f := func(src []byte) bool {
			comp, err := cfg.Codec.Compress(nil, src)
			if err != nil {
				return false
			}
			got, err := cfg.Codec.Decompress(nil, comp)
			return err == nil && bytes.Equal(got, src)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestRoundTripStructuredQuick drives the match-heavy code paths with
// generated self-similar inputs (random inputs rarely produce matches).
func TestRoundTripStructuredQuick(t *testing.T) {
	reps := []string{"lzf-2", "lz4", "lz4hc-9", "lzsse4-4", "lzsse8-6", "lzh-9", "lzr-6"}
	rng := rand.New(rand.NewSource(7))
	for _, name := range reps {
		cfg := MustGet(name)
		for trial := 0; trial < 30; trial++ {
			src := genStructured(rng, 1+rng.Intn(32<<10))
			comp, err := cfg.Codec.Compress(nil, src)
			if err != nil {
				t.Fatalf("%s trial %d: compress: %v", name, trial, err)
			}
			got, err := cfg.Codec.Decompress(nil, comp)
			if err != nil {
				t.Fatalf("%s trial %d: decompress: %v", name, trial, err)
			}
			if !bytes.Equal(got, src) {
				t.Fatalf("%s trial %d: mismatch (len %d)", name, trial, len(src))
			}
		}
	}
}

// genStructured produces data with a controlled mix of literal spans and
// copied spans at varied distances/lengths, exercising overlap copies.
func genStructured(rng *rand.Rand, n int) []byte {
	out := make([]byte, 0, n)
	for len(out) < n {
		if len(out) > 4 && rng.Intn(3) > 0 {
			dist := 1 + rng.Intn(len(out))
			l := 1 + rng.Intn(300)
			for i := 0; i < l && len(out) < n; i++ {
				out = append(out, out[len(out)-dist])
			}
		} else {
			l := 1 + rng.Intn(64)
			for i := 0; i < l && len(out) < n; i++ {
				out = append(out, byte(rng.Intn(8))) // small alphabet: more matches
			}
		}
	}
	return out
}

func TestCompressionOrdering(t *testing.T) {
	// On compressible data the families must land in their expected ratio
	// bands: lzr (lzma-class) >= lzh (deflate-class) >= lz4hc >= lz4 > store.
	rng := rand.New(rand.NewSource(3))
	src := genStructured(rng, 256<<10)
	ratio := func(name string) float64 {
		cfg := MustGet(name)
		comp, err := cfg.Codec.Compress(nil, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return float64(len(src)) / float64(len(comp))
	}
	rStore := ratio("store")
	rLz4 := ratio("lz4")
	rHC := ratio("lz4hc-9")
	rLzh := ratio("lzh-9")
	rLzr := ratio("lzr-9")
	if !(rLzr >= rLzh && rLzh >= rHC*0.95 && rHC >= rLz4*0.95 && rLz4 > rStore) {
		t.Fatalf("ratio ordering violated: store=%.2f lz4=%.2f lz4hc=%.2f lzh=%.2f lzr=%.2f",
			rStore, rLz4, rHC, rLzh, rLzr)
	}
	if rStore > 1.0 {
		t.Fatalf("store must not compress: ratio %.3f", rStore)
	}
}

func TestDecodedLen(t *testing.T) {
	src := []byte("hello, fanstore")
	comp, err := MustGet("lz4").Codec.Compress(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	n, err := DecodedLen(comp)
	if err != nil || n != len(src) {
		t.Fatalf("DecodedLen = %d, %v; want %d, nil", n, err, len(src))
	}
	if _, err := DecodedLen(nil); err == nil {
		t.Fatal("DecodedLen(nil) should fail")
	}
}

// TestCorruptStreams verifies corrupt inputs yield errors, never panics.
func TestCorruptStreams(t *testing.T) {
	src := bytes.Repeat([]byte("fanstore compressed object store "), 200)
	names := []string{"store", "rle", "lzf-2", "lz4", "lz4hc-9", "lzsse8-4", "huff", "lzh-5", "lzr-5", "flate-6", "lzw", "delta4+lz4"}
	rng := rand.New(rand.NewSource(11))
	for _, name := range names {
		cfg := MustGet(name)
		comp, err := cfg.Codec.Compress(nil, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Substantial truncations must not silently round-trip. (Cutting
		// only the final byte can be undetectable — e.g. LZ4's empty
		// terminator token or DEFLATE pad bits — as in the real formats,
		// which rely on container checksums; FanStore's pack format adds
		// a CRC per file for exactly that reason.)
		for _, cut := range []int{0, 1, len(comp) / 2} {
			if cut >= len(comp) {
				continue
			}
			if got, err := cfg.Codec.Decompress(nil, comp[:cut]); err == nil && bytes.Equal(got, src) {
				t.Errorf("%s: truncation to %d bytes silently round-tripped", name, cut)
			}
		}
		// Random single-byte corruptions: must not panic; errors allowed.
		for trial := 0; trial < 50; trial++ {
			mut := append([]byte(nil), comp...)
			mut[rng.Intn(len(mut))] ^= 1 << uint(rng.Intn(8))
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s: panic on corrupt stream: %v", name, r)
					}
				}()
				cfg.Codec.Decompress(nil, mut)
			}()
		}
	}
}

func TestRegistryStable(t *testing.T) {
	cfgs := Registry()
	if len(cfgs) < 180 {
		t.Fatalf("registry has %d configurations, paper sweep needs >= 180", len(cfgs))
	}
	seenName := make(map[string]bool)
	for i, c := range cfgs {
		if int(c.ID) != i {
			t.Fatalf("config %q has ID %d at index %d; IDs must be dense and ordered", c.Name, c.ID, i)
		}
		if seenName[c.Name] {
			t.Fatalf("duplicate config name %q", c.Name)
		}
		seenName[c.Name] = true
		if got, ok := ByID(c.ID); !ok || got.Name != c.Name {
			t.Fatalf("ByID(%d) mismatch", c.ID)
		}
		if got, ok := ByName(c.Name); !ok || got.ID != c.ID {
			t.Fatalf("ByName(%q) mismatch", c.Name)
		}
	}
	// Known-stable anchors: the pack format depends on these not moving.
	if store := MustGet("store"); store.ID != 0 {
		t.Fatalf("store must be ID 0, got %d", store.ID)
	}
}

func TestAliases(t *testing.T) {
	for _, pair := range Aliases() {
		alias, target := pair[0], pair[1]
		got, ok := ByName(alias)
		if !ok {
			t.Fatalf("alias %q does not resolve", alias)
		}
		if got.Name != target {
			t.Fatalf("alias %q resolved to %q, want %q", alias, got.Name, target)
		}
	}
	if _, ok := ByName("no-such-codec"); ok {
		t.Fatal("unknown name should not resolve")
	}
	if _, ok := ByID(60000); ok {
		t.Fatal("unknown id should not resolve")
	}
}

func TestConcurrentUse(t *testing.T) {
	// Codecs must be safe for concurrent use: FanStore decompresses on
	// many I/O threads at once (§II-B1), and packs on many workers.
	src := genStructured(rand.New(rand.NewSource(5)), 64<<10)
	t.Run("compress", func(t *testing.T) { concurrentCompress(t, src) })
	for _, name := range []string{"lz4hc-9", "lzr-4", "lzh-6", "huff"} {
		cfg := MustGet(name)
		comp, err := cfg.Codec.Compress(nil, src)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 8)
		for g := 0; g < 8; g++ {
			go func() {
				for i := 0; i < 10; i++ {
					got, err := cfg.Codec.Decompress(nil, comp)
					if err != nil || !bytes.Equal(got, src) {
						done <- err
						return
					}
				}
				done <- nil
			}()
		}
		for g := 0; g < 8; g++ {
			if err := <-done; err != nil {
				t.Fatalf("%s: concurrent decompress: %v", name, err)
			}
		}
	}
}

// concurrentCompress compresses from 8 goroutines that share the pool of
// match tables, each walking the inputs from its own start, so a table
// reaches a goroutine dirty with another's input; every output must be
// the sequential one.
func concurrentCompress(t *testing.T, src []byte) {
	g := dataset.Generator{Kind: dataset.Tokamak, Seed: 3, Size: 4 << 10}
	inputs := [][]byte{src}
	for i := 0; i < 15; i++ {
		inputs = append(inputs, g.Bytes(i))
	}
	for _, name := range []string{"lz4hc-9", "lzsse8-4", "lz4", "lzf-2"} {
		cfg := MustGet(name)
		want := make([][]byte, len(inputs))
		for i, in := range inputs {
			var err error
			if want[i], err = cfg.Codec.Compress(nil, in); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range inputs {
					i := (w + k) % len(inputs)
					got, err := cfg.Codec.Compress(nil, inputs[i])
					if err != nil || !bytes.Equal(got, want[i]) {
						t.Errorf("%s: concurrent compress of input %d differs (err %v)", name, i, err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

func TestPassthrough(t *testing.T) {
	if MustGet("store").ID != StoreID {
		t.Fatal("StoreID constant out of sync with registry")
	}
	src := []byte("raw object bytes")
	comp, err := MustGet("store").Codec.Compress(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	payload, ok := Passthrough(StoreID, comp)
	if !ok || !bytes.Equal(payload, src) {
		t.Fatalf("Passthrough = %q, %v", payload, ok)
	}
	// Aliasing, not copying.
	if &payload[0] != &comp[len(comp)-len(src)] {
		t.Fatal("Passthrough must alias the stream")
	}
	if _, ok := Passthrough(MustGet("lz4").ID, comp); ok {
		t.Fatal("non-store id must not pass through")
	}
	if _, ok := Passthrough(StoreID, comp[:1]); ok {
		t.Fatal("truncated stream must not pass through")
	}
}

// TestLzdBeatsLzh verifies the dedicated length/distance models buy ratio
// over the order-0 entropy stage on text-like data, and that lazy
// matching (level >= 4) never loses to greedy. (On extreme synthetic
// redundancy lzh can win instead, because the LZ4 block format carries
// unbounded match lengths while DEFLATE caps them at 258 — a faithful
// reproduction of the real formats' tradeoff.)
func TestLzdBeatsLzh(t *testing.T) {
	// Natural-language-like input: random words from a vocabulary (no
	// long exact repeats, plenty of short matches and skewed symbols).
	vocab := strings.Fields("the of and to a in that is was he for it with as his on be at by had not are but from or have an they which one you were her all she there would their we him been has when who will more no if out so said what up its about into than them can only other new some could time these two may then do first any my now such like our over")
	rng := rand.New(rand.NewSource(9))
	var sb strings.Builder
	for sb.Len() < 128<<10 {
		sb.WriteString(vocab[rng.Intn(len(vocab))])
		sb.WriteByte(' ')
	}
	src := []byte(sb.String())
	ratio := func(name string) float64 {
		cfg := MustGet(name)
		comp, err := cfg.Codec.Compress(nil, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := cfg.Codec.Decompress(nil, comp)
		if err != nil || !bytes.Equal(got, src) {
			t.Fatalf("%s: round trip failed: %v", name, err)
		}
		return float64(len(src)) / float64(len(comp))
	}
	lzd := ratio("lzd-9")
	lzh := ratio("lzh-9")
	if lzd < lzh {
		t.Fatalf("lzd-9 (%.2f) should beat lzh-9 (%.2f)", lzd, lzh)
	}
	if greedy, lazy := ratio("lzd-3"), ratio("lzd-9"); lazy < greedy*0.99 {
		t.Fatalf("lazy matching (%.2f) lost to greedy (%.2f)", lazy, greedy)
	}
	// And the unbounded-match tradeoff goes the other way on extreme runs.
	runs := genStructured(rng, 64<<10)
	comp, err := MustGet("lzd-9").Codec.Compress(nil, runs)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := MustGet("lzd-9").Codec.Decompress(nil, comp); err != nil || !bytes.Equal(got, runs) {
		t.Fatalf("lzd round trip on runs: %v", err)
	}
	// It should be within sight of stdlib DEFLATE (same class).
	if flate := ratio("flate-9"); lzd < flate*0.75 {
		t.Fatalf("lzd-9 (%.2f) too far behind flate-9 (%.2f)", lzd, flate)
	}
}

func TestLzdCodeTables(t *testing.T) {
	// Every legal length maps to a code whose base+extra reproduces it.
	for l := lzdMinMatch; l <= lzdMaxMatch; l++ {
		c, x := lzdLenCode(l)
		if got := lzdLenBase[c] + int(x); got != l {
			t.Fatalf("length %d -> code %d extra %d -> %d", l, c, x, got)
		}
		if x >= 1<<uint(lzdLenExtra[c]) {
			t.Fatalf("length %d extra %d overflows %d bits", l, x, lzdLenExtra[c])
		}
	}
	for d := 1; d <= lzdMaxDist; d++ {
		c, x := lzdDistCode(d)
		if got := lzdDistBase[c] + int(x); got != d {
			t.Fatalf("dist %d -> code %d extra %d -> %d", d, c, x, got)
		}
		if x >= 1<<uint(lzdDistExtra[c]) {
			t.Fatalf("dist %d extra %d overflows %d bits", d, x, lzdDistExtra[c])
		}
	}
}

func TestNumConfigsAndNames(t *testing.T) {
	if NumConfigs() != len(Registry()) {
		t.Fatal("NumConfigs inconsistent")
	}
	for _, cfg := range Registry()[:5] {
		if cfg.Codec.Name() != cfg.Name {
			t.Fatalf("Codec.Name() %q != registry name %q", cfg.Codec.Name(), cfg.Name)
		}
	}
}
