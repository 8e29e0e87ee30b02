package mpi

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"net"
	"runtime"
	"testing"

	"fanstore/internal/decomp"
)

// frameHeader builds one TCP frame header as a peer would send it.
func frameHeader(src uint32, tag int, length uint32) []byte {
	h := make([]byte, tcpFrameHdr)
	binary.LittleEndian.PutUint32(h[:4], src)
	binary.LittleEndian.PutUint64(h[4:12], uint64(int64(tag)<<1)^uint64(int64(tag)>>63))
	binary.LittleEndian.PutUint32(h[12:16], length)
	return h
}

// FuzzTCPFrameReader feeds arbitrary bytes to the reader of one inbound
// connection. It must never panic, must deliver exactly the whole valid
// frames a reference parse of the input finds before the first bad or
// truncated one, and must not let a header buy memory: what it allocates
// is bounded by the input (each delivered body sits in a buffer of at
// most twice its size) plus one pool class for a body that was announced
// within the frame limit and never came.
func FuzzTCPFrameReader(f *testing.F) {
	const worldSize = 4
	hello := append(frameHeader(2, 7, 5), "hello"...)
	f.Add(append(append([]byte{}, hello...), append(frameHeader(1, -3, 0), hello...)...))
	f.Add(frameHeader(0, 1, maxFrame+1))
	f.Add(frameHeader(0, 1, 1<<31))
	f.Add(frameHeader(0, 1, 0xffffffff))
	f.Add(frameHeader(0, 1, maxFrame)) // allowed, and the body never comes
	f.Add(hello[:9])                   // truncated header
	f.Add(hello[:tcpFrameHdr+2])       // truncated body
	f.Add(frameHeader(3, 0, 0))        // zero-length frame
	f.Add(append(frameHeader(worldSize, 1, 5), "hello"...))
	f.Add(append(frameHeader(0xffffffff, 1, 5), "hello"...))

	f.Fuzz(func(t *testing.T, input []byte) {
		// Reference parse: the frames to expect and the announced size of
		// a last, incomplete body.
		var want []message
		announced := 0
		for in := input; len(in) >= tcpFrameHdr; {
			src := binary.LittleEndian.Uint32(in[:4])
			z := binary.LittleEndian.Uint64(in[4:12])
			length := binary.LittleEndian.Uint32(in[12:16])
			if src >= worldSize || length > maxFrame {
				break
			}
			in = in[tcpFrameHdr:]
			if uint64(length) > uint64(len(in)) {
				announced = int(length)
				break
			}
			want = append(want, message{src: int(src), tag: int(int64(z>>1) ^ -int64(z&1)), data: in[:length]})
			in = in[length:]
		}

		w, err := newWorld(worldSize)
		if err != nil {
			t.Fatal(err)
		}
		tr := &tcpTransport{w: w}
		peer, conn := net.Pipe()
		go func() {
			_, _ = peer.Write(input) // fails once the reader hangs up; that is the point
			peer.Close()
		}()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr.reader(0, conn)
		runtime.ReadMemStats(&after)

		got := w.boxes[0].queue
		if len(got) != len(want) {
			t.Fatalf("delivered %d frames, the input holds %d", len(got), len(want))
		}
		for i, m := range got {
			if m.src != want[i].src || m.tag != want[i].tag || !bytes.Equal(m.data, want[i].data) {
				t.Fatalf("frame %d: src %d tag %d %d bytes, want src %d tag %d %d bytes",
					i, m.src, m.tag, len(m.data), want[i].src, want[i].tag, len(want[i].data))
			}
		}
		class := 0
		if announced > 0 {
			class = min(1<<bits.Len(uint(announced)), decomp.MaxBuf)
		}
		const slack = 1 << 20 // the pipe, the goroutine, the test's own bookkeeping
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(2*len(input)+class+slack); grew > bound {
			t.Fatalf("reader allocated %d bytes on %d bytes of input (announced %d): over %d",
				grew, len(input), announced, bound)
		}
	})
}
