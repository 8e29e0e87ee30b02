package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"fanstore/internal/dataset"
)

// The tests below hold lz4Decompress to lz4DecompressOracle, the
// byte-at-a-time decoder it replaced (lz4_oracle_test.go).

// lz4Block compresses src with the named configuration and returns the
// LZ4 block without its length header.
func lz4Block(t testing.TB, name string, src []byte) []byte {
	t.Helper()
	comp, err := MustGet(name).Codec.Compress(nil, src)
	if err != nil {
		t.Fatalf("%s: compress: %v", name, err)
	}
	n, block, err := splitHeader(comp)
	if err != nil || n != len(src) {
		t.Fatalf("%s: header %d, %v", name, n, err)
	}
	return block
}

// lz4Configs lists every unfiltered configuration of the three families
// whose blocks lz4Decompress decodes.
func lz4Configs() []string {
	var names []string
	for _, cfg := range Registry() {
		switch cfg.Family {
		case "lz4", "lz4hc", "lzsse":
			if !strings.Contains(cfg.Name, "+") {
				names = append(names, cfg.Name)
			}
		}
	}
	return names
}

func TestLZ4FamilyRoundTripDatasets(t *testing.T) {
	names := lz4Configs()
	if len(names) != 31 {
		t.Fatalf("%d lz4-family configurations, want 31", len(names))
	}
	for _, kind := range dataset.Kinds() {
		for _, size := range []int{1, 15, 4 << 10, 256 << 10} {
			// The generators write a format header first, so the tiny
			// sizes are prefixes of a 4 KiB file.
			src := dataset.Generator{Kind: kind, Seed: 1, Size: max(size, 4<<10)}.Bytes(0)[:size]
			t.Run(fmt.Sprintf("%s/%d", kind, size), func(t *testing.T) {
				t.Parallel()
				for _, name := range names {
					block := lz4Block(t, name, src)
					got, err := lz4Decompress(nil, block, len(src))
					if err != nil || !bytes.Equal(got, src) {
						t.Fatalf("%s: decode: %v (equal=%v)", name, err, bytes.Equal(got, src))
					}
					if want, err := lz4DecompressOracle(nil, block, len(src)); err != nil || !bytes.Equal(want, src) {
						t.Fatalf("%s: oracle: %v", name, err)
					}
				}
			})
		}
	}
}

// TestLZ4OverlapTable decodes one match at every offset 1-24 and length
// 4-40, after a 24-byte literal prefix, followed by 24 literals (room for
// the wide copies), by 8 (too few), or by nothing: the match then ends at
// origLen and the output has no spare capacity at all. appendMatch, the
// other decoders' form of the same copy, runs the same table.
func TestLZ4OverlapTable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	prefix := make([]byte, 24)
	rng.Read(prefix)
	tail := make([]byte, 24)
	rng.Read(tail)
	for off := 1; off <= 24; off++ {
		for mlen := lz4MinMatch; mlen <= 40; mlen++ {
			for _, nt := range []int{24, 8, 0} {
				want := append([]byte(nil), prefix...)
				for j := 0; j < mlen; j++ {
					want = append(want, want[len(want)-off])
				}
				want = append(want, tail[:nt]...)
				block := lz4EmitSeq(nil, prefix, off, mlen)
				if nt > 0 {
					block = lz4EmitSeq(block, tail[:nt], 0, 0)
				}
				got, err := lz4Decompress(make([]byte, 0, len(want)), block, len(want))
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("off=%d len=%d tail=%d: got %x, %v; want %x", off, mlen, nt, got, err, want)
				}
				dst := append(make([]byte, 0, len(want)), prefix...)
				dst = appendMatch(dst, off, mlen, len(want))
				if !bytes.Equal(dst, want[:len(prefix)+mlen]) {
					t.Fatalf("appendMatch off=%d len=%d tail=%d: got %x", off, mlen, nt, dst)
				}
			}
		}
	}
}

// lz4ZoneHead is a block of four short-literal sequences decoding to 64
// bytes from noise[:58]: enough history for every table offset, so the
// sequence after it starts inside lz4Decompress's fast zone when the
// block goes on.
func lz4ZoneHead(noise []byte) []byte {
	var head []byte
	for n := 0; n < 64; n += 16 {
		head = lz4EmitSeq(head, noise[n:n+10], 10, 6)
	}
	return head
}

// TestLZ4OverlapTableInZone is the overlap table where the fast zone
// reaches it: one match at every offset 1-24 and length 4-40, 64 and 300,
// after the 64-byte head and a literal of off%15 bytes, then 0-64 literal
// bytes one at a time, so the decoder leaves the zone at every distance
// from the end of the block and of the output. Each case must equal the
// oracle twice: into a buffer of exactly origLen capacity, where a word
// past the end panics, and after a prefix into 64 spare bytes that must
// stay as they were.
func TestLZ4OverlapTableInZone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	noise := make([]byte, 160)
	rng.Read(noise)
	head, lit, prefix, tail := lz4ZoneHead(noise), noise[64:78], noise[80:87], noise[96:160]
	lens := []int{64, 300}
	for mlen := lz4MinMatch; mlen <= 40; mlen++ {
		lens = append(lens, mlen)
	}
	for off := 1; off <= 24; off++ {
		for _, mlen := range lens {
			for nt := 0; nt <= 64; nt++ {
				block := lz4EmitSeq(append([]byte(nil), head...), lit[:off%15], off, mlen)
				if nt > 0 {
					block = lz4EmitSeq(block, tail[:nt], 0, 0)
				}
				origLen := 64 + off%15 + mlen + nt
				want, err := lz4DecompressOracle(nil, block, origLen)
				if err != nil {
					t.Fatalf("off=%d len=%d tail=%d: oracle: %v", off, mlen, nt, err)
				}
				got, err := lz4Decompress(make([]byte, 0, origLen), block, origLen)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("off=%d len=%d tail=%d: got %x, %v; want %x", off, mlen, nt, got, err, want)
				}
				dst := append(make([]byte, 0, len(prefix)+origLen+64), prefix...)
				spare := dst[len(prefix)+origLen : cap(dst)]
				for j := range spare {
					spare[j] = 0xa5
				}
				got, err = lz4Decompress(dst, block, origLen)
				if err != nil || !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
					t.Fatalf("off=%d len=%d tail=%d after prefix: got %x, %v; want %x", off, mlen, nt, got, err, want)
				}
				if n := bytes.Count(spare, []byte{0xa5}); n != len(spare) {
					t.Fatalf("off=%d len=%d tail=%d: wrote %d bytes past origLen", off, mlen, nt, len(spare)-n)
				}
			}
		}
	}
}

// lz4Agree runs one block through both decoders, after a 3-byte prefix,
// and reports how they disagree: on error against success, or on the
// bytes when both succeed.
func lz4Agree(block []byte, origLen int) error {
	got, err := lz4Decompress([]byte("pre"), block, origLen)
	want, werr := lz4DecompressOracle([]byte("pre"), block, origLen)
	switch {
	case (err == nil) != (werr == nil):
		return fmt.Errorf("decoder err %v, oracle err %v", err, werr)
	case err != nil && !errors.Is(err, ErrCorrupt):
		return fmt.Errorf("untyped error %v", err)
	case err == nil && !bytes.Equal(got, want):
		return fmt.Errorf("bytes differ (%d vs %d)", len(got), len(want))
	}
	return nil
}

func TestLZ4MutationsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	inputs := testInputs()
	srcs := [][]byte{inputs["text"], inputs["smooth16"], inputs["runs"], genStructured(rng, 16<<10)}
	for _, name := range []string{"lz4", "lz4hc-9", "lzsse8-4"} {
		for _, src := range srcs {
			block := lz4Block(t, name, src)
			for trial := 0; trial < 150; trial++ {
				bad := append([]byte(nil), block...)
				origLen := len(src)
				switch trial % 3 {
				case 0:
					for k := 0; k < 1+rng.Intn(4); k++ {
						bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
					}
				case 1:
					bad = bad[:rng.Intn(len(bad))]
				default:
					bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
					origLen += rng.Intn(64) - 32
				}
				if err := lz4Agree(bad, origLen); err != nil {
					t.Fatalf("%s trial %d: %v", name, trial, err)
				}
			}
		}
	}
}

func TestLZ4DecompressIntoPrefix(t *testing.T) {
	src := genStructured(rand.New(rand.NewSource(2)), 8<<10)
	block := lz4Block(t, "lz4hc-9", src)
	prefix := []byte("PREFIX")
	want := append(append([]byte(nil), prefix...), src...)
	for _, spare := range []int{len(src), 0} {
		dst := append(make([]byte, 0, len(prefix)+spare), prefix...)
		got, err := lz4Decompress(dst, block, len(src))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("cap %d: %v (equal=%v)", cap(dst), err, bytes.Equal(got, want))
		}
		if shared := &got[0] == &dst[0]; shared != (spare == len(src)) {
			t.Fatalf("cap %d: output shares dst's array = %v", cap(dst), shared)
		}
	}
}

// TestLZ4ErrorPaths reaches every error of the decoder with a crafted
// block; each but the expansion bound is the oracle's error, word for
// word.
func TestLZ4ErrorPaths(t *testing.T) {
	for _, tc := range []struct {
		block   []byte
		origLen int
		want    string
	}{
		{lz4EmitSeq(nil, []byte("abcd"), 1, 4), 20, "lz4 truncated (have 8 of 20 bytes)"},
		{[]byte{0x50, 'a', 'b'}, 5, "lz4 literal overrun"},
		{[]byte{0x20, 'a', 'b'}, 5, "lz4 decoded 2 bytes, want 5"},
		{[]byte{0x10, 'a', 1}, 10, "lz4 truncated offset"},
		{[]byte{0x10, 'a', 0, 0}, 10, "lz4 zero offset"},
		{[]byte{0xf0}, 20, "lz4 truncated length"},
		{[]byte{0x10, 'a', 2, 0}, 10, "lz4 bad match (off=2 len=4)"},
		{[]byte{0x10, 'a', 1, 0}, 1 << 20, "lz4 declares 1048576 bytes from a 4-byte block"},
	} {
		_, err := lz4Decompress(nil, tc.block, tc.origLen)
		if !errors.Is(err, ErrCorrupt) || !strings.HasSuffix(err.Error(), tc.want) {
			t.Errorf("%x/%d: err = %v, want %q", tc.block, tc.origLen, err, tc.want)
		}
		_, oerr := lz4DecompressOracle(nil, tc.block, tc.origLen)
		if oerr == nil || (!strings.Contains(tc.want, "declares") && oerr.Error() != err.Error()) {
			t.Errorf("%x/%d: oracle err = %v, decoder err = %v", tc.block, tc.origLen, oerr, err)
		}
	}
}

// TestLZ4ErrorPathsInZone makes the match checks fire inside the fast
// zone: each corrupt sequence follows the 64-byte head, has a 5-byte
// literal and at least 40 block bytes after it, and decodes after a
// 3-byte dst prefix, so an offset one byte before base is still inside
// dst. Each error is the oracle's, word for word.
func TestLZ4ErrorPathsInZone(t *testing.T) {
	noise := make([]byte, 160)
	rand.New(rand.NewSource(11)).Read(noise)
	head, lit := lz4ZoneHead(noise), noise[64:69]
	seq := func(off, mlen int) []byte {
		block := lz4EmitSeq(append([]byte(nil), head...), lit, off, mlen)
		return lz4EmitSeq(block, noise[96:136], 0, 0)
	}
	truncated := append(append(append([]byte(nil), head...), 0x5f), lit...)
	truncated = append(append(truncated, 8, 0), bytes.Repeat([]byte{255}, 40)...)
	for _, tc := range []struct {
		block   []byte
		origLen int
		want    string
	}{
		{seq(0, 8), 64 + 5 + 8 + 40, "lz4 zero offset"},
		{seq(64+5+1, 8), 64 + 5 + 8 + 40, "lz4 bad match (off=70 len=8)"},
		{seq(8, 300), 64 + 5 + 100, "lz4 bad match (off=8 len=300)"},
		{truncated, 64 + 5 + 1000, "lz4 truncated length"},
	} {
		_, err := lz4Decompress([]byte("pre"), tc.block, tc.origLen)
		if !errors.Is(err, ErrCorrupt) || !strings.HasSuffix(err.Error(), tc.want) {
			t.Errorf("%q: err = %v", tc.want, err)
		}
		_, oerr := lz4DecompressOracle([]byte("pre"), tc.block, tc.origLen)
		if oerr == nil || err == nil || oerr.Error() != err.Error() {
			t.Errorf("%q: oracle err = %v, decoder err = %v", tc.want, oerr, err)
		}
	}
}

// TestLZ4ForgedLengthAllocates: a header declaring 1 GiB over a 10-byte
// body must fail without allocating for the declared length.
func TestLZ4ForgedLengthAllocates(t *testing.T) {
	stream := binary.AppendUvarint(nil, 1<<30)
	stream = append(stream, 0x1f, 'a', 1, 0, 255, 255, 255, 255, 255, 255)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := MustGet("lz4").Codec.Decompress(nil, stream)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("allocated %d bytes for a forged 1 GiB header", d)
	}
}
