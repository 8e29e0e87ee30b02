// Package pack implements FanStore's compressed data representation
// (Table I of the paper) and the data preparation tool that produces it
// (§V-B).
//
// A dataset is split into partitions. Each partition is a flat blob:
//
//	num_files  4 bytes
//	then per file:
//	  file path   256 bytes (NUL padded)
//	  compressor    2 bytes (codec registry ID)
//	  stat        144 bytes (fixed layout, see Stat)
//	  size          8 bytes (compressed data length)
//	  data          variable
//
// Partitions are written once to the shared filesystem and loaded to
// node-local storage at training start (§IV-C1). Small files concatenated
// into partitions also stop wasting filesystem blocks, which is why the
// paper's Tokamak dataset compresses 6.5x as a packed partition versus
// 2.6x as individual files (§VII-E2).
package pack

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"fanstore/internal/codec"
)

// Layout constants from Table I.
const (
	PathLen    = 256
	StatLen    = 144
	headerLen  = 4
	entryFixed = PathLen + 2 + StatLen + 8
)

// Stat is the fixed 144-byte per-file metadata record of the compressed
// representation. It carries what a POSIX stat() of the original file
// returns plus an integrity checksum of the uncompressed payload
// (entropy-coded streams cannot always detect their own truncation).
// The remaining bytes of the 144 are reserved padding.
type Stat struct {
	Size  int64  // uncompressed size in bytes
	Mode  uint32 // file mode bits
	MTime int64  // modification time, Unix nanoseconds
	CRC32 uint32 // IEEE CRC of the uncompressed payload
}

// marshal writes the stat into a 144-byte region.
func (s Stat) marshal(dst []byte) {
	binary.LittleEndian.PutUint64(dst[0:], uint64(s.Size))
	binary.LittleEndian.PutUint32(dst[8:], s.Mode)
	binary.LittleEndian.PutUint64(dst[12:], uint64(s.MTime))
	binary.LittleEndian.PutUint32(dst[20:], s.CRC32)
	for i := 24; i < StatLen; i++ {
		dst[i] = 0
	}
}

func unmarshalStat(src []byte) Stat {
	return Stat{
		Size:  int64(binary.LittleEndian.Uint64(src[0:])),
		Mode:  binary.LittleEndian.Uint32(src[8:]),
		MTime: int64(binary.LittleEndian.Uint64(src[12:])),
		CRC32: binary.LittleEndian.Uint32(src[20:]),
	}
}

// Entry is one file inside a partition.
type Entry struct {
	Path         string
	CompressorID uint16
	Stat         Stat
	Data         []byte // compressed payload (subslice of the partition blob)
}

// Decompress returns the file's original bytes, verifying the CRC.
func (e *Entry) Decompress(dst []byte) ([]byte, error) {
	start := len(dst)
	cfg, ok := codec.ByID(e.CompressorID)
	if !ok {
		return dst, fmt.Errorf("pack: %s: unknown compressor id %d", e.Path, e.CompressorID)
	}
	out, err := cfg.Codec.Decompress(dst, e.Data)
	if err != nil {
		return dst, fmt.Errorf("pack: %s: %w", e.Path, err)
	}
	body := out[start:]
	if int64(len(body)) != e.Stat.Size {
		return dst, fmt.Errorf("pack: %s: decompressed %d bytes, stat says %d", e.Path, len(body), e.Stat.Size)
	}
	if crc := crc32.ChecksumIEEE(body); crc != e.Stat.CRC32 {
		return dst, fmt.Errorf("pack: %s: CRC mismatch (%08x != %08x)", e.Path, crc, e.Stat.CRC32)
	}
	return out, nil
}

// Partition is a parsed partition blob. Entries reference subslices of
// the blob; the blob must outlive them.
type Partition struct {
	Entries []Entry
}

// Marshal serializes entries into a partition blob.
func Marshal(entries []Entry) ([]byte, error) {
	size := headerLen
	for i := range entries {
		size += entryFixed + len(entries[i].Data)
	}
	out := make([]byte, headerLen, size)
	binary.LittleEndian.PutUint32(out, uint32(len(entries)))
	for i := range entries {
		e := &entries[i]
		if len(e.Path) >= PathLen {
			return nil, fmt.Errorf("pack: path %q exceeds %d bytes", e.Path, PathLen-1)
		}
		var fixed [entryFixed]byte
		copy(fixed[:PathLen], e.Path)
		binary.LittleEndian.PutUint16(fixed[PathLen:], e.CompressorID)
		e.Stat.marshal(fixed[PathLen+2 : PathLen+2+StatLen])
		binary.LittleEndian.PutUint64(fixed[PathLen+2+StatLen:], uint64(len(e.Data)))
		out = append(out, fixed[:]...)
		out = append(out, e.Data...)
	}
	return out, nil
}

// Parse reads a partition blob. Entry.Data aliases blob.
func Parse(blob []byte) (*Partition, error) {
	if len(blob) < headerLen {
		return nil, fmt.Errorf("pack: partition truncated (%d bytes)", len(blob))
	}
	n := int(binary.LittleEndian.Uint32(blob))
	// The declared count is untrusted: bound the preallocation by the
	// maximum number of entries the blob could physically hold.
	maxPossible := (len(blob) - headerLen) / entryFixed
	if n > maxPossible {
		return nil, fmt.Errorf("pack: declared %d entries but blob holds at most %d", n, maxPossible)
	}
	p := &Partition{Entries: make([]Entry, 0, n)}
	off := headerLen
	for i := 0; i < n; i++ {
		if off+entryFixed > len(blob) {
			return nil, fmt.Errorf("pack: entry %d header truncated", i)
		}
		fixed := blob[off : off+entryFixed]
		path := cString(fixed[:PathLen])
		if path == "" {
			return nil, fmt.Errorf("pack: entry %d has empty path", i)
		}
		compressor := binary.LittleEndian.Uint16(fixed[PathLen:])
		st := unmarshalStat(fixed[PathLen+2 : PathLen+2+StatLen])
		dataLen := binary.LittleEndian.Uint64(fixed[PathLen+2+StatLen:])
		off += entryFixed
		if dataLen > uint64(len(blob)-off) {
			return nil, fmt.Errorf("pack: entry %d (%s) data truncated: need %d, have %d", i, path, dataLen, len(blob)-off)
		}
		p.Entries = append(p.Entries, Entry{
			Path:         path,
			CompressorID: compressor,
			Stat:         st,
			Data:         blob[off : off+int(dataLen) : off+int(dataLen)],
		})
		off += int(dataLen)
	}
	if off != len(blob) {
		return nil, fmt.Errorf("pack: %d trailing bytes after %d entries", len(blob)-off, n)
	}
	return p, nil
}

func cString(b []byte) string {
	for i, c := range b {
		if c == 0 {
			return string(b[:i])
		}
	}
	return string(b)
}
