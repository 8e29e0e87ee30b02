package codec

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"fanstore/internal/dataset"
)

// encoderInputs is the fixed input set the output digests are taken
// over: EM, Tokamak and ImageNet files of 0, 3, 17, 4 KiB and 37 KiB
// bytes (the three smallest are prefixes of the 4 KiB file), plus
// 256 KiB files for the unfiltered lz4, lz4hc and lzsse configurations,
// the codecs the benchmark packs with.
func encoderInputs(cfg Config) [][]byte {
	sizes := []int{0, 3, 17, 4 << 10, 37 << 10}
	switch cfg.Family {
	case "lz4", "lz4hc", "lzsse":
		if !strings.Contains(cfg.Name, "+") {
			sizes = append(sizes, 256<<10)
		}
	}
	var out [][]byte
	for _, kind := range []dataset.Kind{dataset.EM, dataset.Tokamak, dataset.ImageNet} {
		for _, size := range sizes {
			g := dataset.Generator{Kind: kind, Seed: 1, Size: max(size, 4<<10)}
			out = append(out, g.Bytes(0)[:size])
		}
	}
	return out
}

// encoderDigests hashes, per family, every configuration's output over
// encoderInputs, in registry order. flate is left out: its bytes are the
// standard library's, which a Go release may change.
func encoderDigests(t *testing.T) map[string]string {
	hashes := map[string][]byte{}
	var buf []byte
	for _, cfg := range Registry() {
		if cfg.Family == "flate" {
			continue
		}
		h := sha256.New()
		h.Write([]byte(cfg.Name))
		for _, src := range encoderInputs(cfg) {
			var err error
			if buf, err = cfg.Codec.Compress(buf[:0], src); err != nil {
				t.Fatalf("%s: %v", cfg.Name, err)
			}
			h.Write(binary.AppendUvarint(nil, uint64(len(buf))))
			h.Write(buf)
		}
		hashes[cfg.Family] = append(hashes[cfg.Family], h.Sum(nil)...)
	}
	out := make(map[string]string, len(hashes))
	for family, sums := range hashes {
		sum := sha256.Sum256(sums)
		out[family] = hex.EncodeToString(sum[:8])
	}
	return out
}

// encoderOutputDigests pins what every encoder writes, per family, over
// encoderInputs. A change that only makes an encoder faster must not need
// to touch them. A change meant to alter an encoder's output regenerates
// them: `go test -run TestEncoderOutputPinned ./internal/codec` fails and
// logs the digests it got; check the ratios the change moves, then copy
// those lines in.
var encoderOutputDigests = map[string]string{
	"huff":  "5dcd0ee7c81ec657",
	"lz4":   "a0059cf08790e9f9",
	"lz4hc": "8811daefdc51ff79",
	"lzd":   "99b1e94d17e33bb7",
	"lzf":   "01c8da6288067eab",
	"lzh":   "7df2162f93f3eb05",
	"lzr":   "bbcc77b2c2c64260",
	"lzsse": "358aec928f5e8c36",
	"lzw":   "1f5a279767572f6a",
	"rle":   "e77ff7f1c35cc536",
	"store": "097e9306dfd2491c",
}

func TestEncoderOutputPinned(t *testing.T) {
	skipUnderRace(t)
	checkDigests(t, encoderDigests(t))
}

// skipUnderRace skips the whole-registry digests under the race
// detector, which slows them twentyfold: they run on one goroutine and
// compute the same bytes either way, so the plain test run covers them.
func skipUnderRace(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("single-goroutine digest; the run without -race checks it")
	}
}

func checkDigests(t *testing.T, got map[string]string) {
	t.Helper()
	var families []string
	for f := range got {
		families = append(families, f)
	}
	sort.Strings(families)
	var table strings.Builder
	bad := false
	for _, f := range families {
		fmt.Fprintf(&table, "\t%q: %q,\n", f, got[f])
		if want := encoderOutputDigests[f]; got[f] != want {
			t.Errorf("%s: output digest %s, want %s", f, got[f], want)
			bad = true
		}
	}
	if len(got) != len(encoderOutputDigests) {
		t.Errorf("%d families digested, %d pinned", len(got), len(encoderOutputDigests))
		bad = true
	}
	if bad {
		t.Logf("digests now:\n%s", table.String())
	}
}

// useTablesFrom makes every table the pool hands out until the test ends
// a fresh one whose stamp starts at stamp, or one of those put back.
func useTablesFrom(t *testing.T, stamp int32) {
	saved := matchTables
	matchTables = &sync.Pool{New: func() any { return &matchTable{stamp: stamp} }}
	t.Cleanup(func() { matchTables = saved })
}

// TestMatchTableStampWrap runs the digest with tables whose stamp starts
// 40 000 short of math.MaxInt32: within a few calls each one must be
// cleared and restarted, and the output must not notice.
func TestMatchTableStampWrap(t *testing.T) {
	skipUnderRace(t)
	useTablesFrom(t, math.MaxInt32-40_000)
	checkDigests(t, encoderDigests(t))
}

// TestCompressIndependentOfHistory checks that what a configuration
// writes for a file does not depend on what was compressed before it:
// Tokamak 4 KiB files are compressed in order, then, after a 16 KiB
// file, in reverse order, and the two passes must agree. Hash tables
// reused without a stamp fail it for lz4, lz4fast and lzf.
func TestCompressIndependentOfHistory(t *testing.T) {
	g := dataset.Generator{Kind: dataset.Tokamak, Seed: 3, Size: 4 << 10}
	files := make([][]byte, 24)
	for i := range files {
		files[i] = g.Bytes(i)
	}
	big := dataset.Generator{Kind: dataset.Tokamak, Seed: 3, Size: 16 << 10}.Bytes(64)
	for _, cfg := range Registry() {
		t.Run(cfg.Name, func(t *testing.T) {
			compress := func(src []byte) []byte {
				out, err := cfg.Codec.Compress(nil, src)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			first := make([][]byte, len(files))
			for i, f := range files {
				first[i] = compress(f)
			}
			compress(big)
			for i := len(files) - 1; i >= 0; i-- {
				if !bytes.Equal(compress(files[i]), first[i]) {
					t.Errorf("file %d compresses differently after other inputs", i)
				}
			}
		})
	}
}
