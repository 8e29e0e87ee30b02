package decomp

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"fanstore/internal/codec"
)

// benchItems builds a 64-item prefetch batch of entropy-coded payloads —
// the decode-bound shape of a FetchMany round (§VII-D): many medium
// objects whose decompression, not transport, dominates.
func benchItems(b testing.TB, name string, n, size int) (codec.Codec, [][]byte, int) {
	b.Helper()
	cfg := codec.MustGet(name)
	rng := rand.New(rand.NewSource(11))
	comp := make([][]byte, n)
	for i := range comp {
		src := make([]byte, size)
		v := 64.0
		for j := range src {
			v += rng.Float64()*6 - 3
			src[j] = byte(int(v))
		}
		c, err := cfg.Codec.Compress(nil, src)
		if err != nil {
			b.Fatal(err)
		}
		comp[i] = c
	}
	return cfg.Codec, comp, size
}

// BenchmarkBatchDecodeSerial decodes a 64-item batch one by one on the
// caller — the pre-pool data path.
func BenchmarkBatchDecodeSerial(b *testing.B) {
	c, items, size := benchItems(b, "huff", 64, 64<<10)
	s := codec.NewScratch()
	b.SetBytes(int64(len(items) * size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, comp := range items {
			out, err := codec.DecompressScratch(c, s, GetBuf(size), comp)
			if err != nil {
				b.Fatal(err)
			}
			PutBuf(out)
		}
	}
}

// BenchmarkBatchDecodePooled fans the same batch out across the decode
// pool at prefetch priority. On a multi-core machine this is the >=2x
// headline number; on a single core it measures the pool's overhead.
func BenchmarkBatchDecodePooled(b *testing.B) {
	c, items, size := benchItems(b, "huff", 64, 64<<10)
	p := New(0, nil)
	defer p.Close()
	b.SetBytes(int64(len(items) * size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for _, comp := range items {
			comp := comp
			wg.Add(1)
			p.Submit(PriPrefetch, &wg, func(s *codec.Scratch) {
				out, err := codec.DecompressScratch(c, s, GetBuf(size), comp)
				if err != nil {
					b.Error(err)
				}
				PutBuf(out)
			})
		}
		wg.Wait()
	}
}

// TestPooledDecodeAllocs is the zero-alloc gate on the pooled paths,
// one row each: with a warm buffer class, a GetBuf→PutBuf round trip
// (what every file the prefetch pipeline delivers passes through) must
// not allocate, and with a warm scratch too, GetBuf + DecompressScratch +
// PutBuf must not allocate per decode.
func TestPooledDecodeAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race detector randomizes sync.Pool; pool determinism untestable")
	}
	c, items, size := benchItems(t, "huff", 1, 64<<10)
	comp := items[0]
	s := codec.NewScratch()
	want, err := c.Decompress(nil, comp)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name string
		op   func()
	}{
		{"getbuf-putbuf", func() { PutBuf(GetBuf(size)) }},
		{"huff-decode", func() {
			out, err := codec.DecompressScratch(c, s, GetBuf(size), comp)
			if err != nil || !bytes.Equal(out, want) {
				t.Fatal("decode mismatch")
			}
			PutBuf(out)
		}},
	} {
		if allocs := testing.AllocsPerRun(200, row.op); allocs != 0 {
			t.Errorf("%s allocates %.1f objects/op, want 0", row.name, allocs)
		}
	}
}
