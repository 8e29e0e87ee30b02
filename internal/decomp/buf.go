package decomp

import (
	"math/bits"
	"sync"
)

// Size-classed buffer pool for the hot-path byte buffers: decode
// outputs (cache entries recycle here on eviction via the ownership
// flag), the handlers' response payloads, the frames the transport
// receives into (internal/mpi draws them here; the receiver that owns
// one may hand it back), and the files Node.ReadFile delivers (the
// prefetch pipeline hands them back). Classes are powers of two from
// MinBuf to MaxBuf; smaller buffers are cheaper to allocate than to
// pool, larger ones are rare enough to leave to the GC.

const (
	minClassBits = 9  // 512 B
	maxClassBits = 26 // 64 MiB
	numClasses   = maxClassBits - minClassBits + 1
)

// MinBuf and MaxBuf are the capacities of the smallest and largest
// pooled class. GetBuf rounds a request below MinBuf up to it and serves
// one above MaxBuf with an exact-size allocation; PutBuf leaves buffers
// outside the range to the GC.
const (
	MinBuf = 1 << minClassBits
	MaxBuf = 1 << maxClassBits
)

// Each class pools its buffers boxed in a *[]byte, because a []byte put
// in a sync.Pool as it is costs an interface box per Put. The emptied
// boxes wait in their own free list for the next PutBuf, so a warm
// GetBuf→PutBuf round trip allocates nothing.
var (
	bufClasses [numClasses]sync.Pool // *[]byte, each holding a buffer
	boxes      sync.Pool             // *[]byte, empty
)

// GetBuf returns a zero-length buffer with capacity at least n, drawn
// from the pool when a buffer of n's size class is available.
func GetBuf(n int) []byte {
	if n > 1<<maxClassBits {
		return make([]byte, 0, n)
	}
	c := 0
	if n > 1<<minClassBits {
		c = bits.Len(uint(n-1)) - minClassBits
	}
	if v := bufClasses[c].Get(); v != nil {
		box := v.(*[]byte)
		b := *box
		*box = nil
		boxes.Put(box)
		return b
	}
	return make([]byte, 0, 1<<(c+minClassBits))
}

// PutBuf recycles a buffer for a later GetBuf. Foreign buffers (not
// from GetBuf) are binned by their floor size class, so a Get from that
// class still honours its capacity guarantee; buffers below the
// smallest class or above the largest are left to the GC. The caller
// must not touch b afterwards.
func PutBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	c := bits.Len(uint(cap(b))) - 1 - minClassBits
	if c < 0 || c >= numClasses {
		return
	}
	box, _ := boxes.Get().(*[]byte)
	if box == nil {
		box = new([]byte)
	}
	*box = b[:0]
	bufClasses[c].Put(box)
}
