package pack

import "testing"

// FuzzParse feeds arbitrary blobs to the partition parser: it must reject
// or parse without panicking, and never alias out of bounds.
func FuzzParse(f *testing.F) {
	blob, _ := Marshal(nil)
	f.Add(blob)
	if b, err := Build([]InputFile{{Path: "a", Data: []byte("hello world")}},
		BuildOptions{Partitions: 1, Compressor: "lz4"}); err == nil {
		f.Add(b.Scatter[0])
	}
	// An entry under 0xFFFF, the compressor ID no registry codec holds.
	if b, err := Marshal([]Entry{{Path: "b", CompressorID: 0xFFFF, Stat: Stat{Size: 4}, Data: []byte("seed")}}); err == nil {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		p, err := Parse(blob)
		if err != nil {
			return
		}
		for i := range p.Entries {
			// Decompress may fail (CRC, unknown compressor); it must not
			// panic.
			p.Entries[i].Decompress(nil)
		}
	})
}
