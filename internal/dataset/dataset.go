// Package dataset generates synthetic stand-ins for the six real-world
// datasets of the paper's evaluation (Table II). The originals —
// electron-microscopy TIFFs, tokamak diagnostic NPZs, lung CT NIfTIs,
// astronomy FITS images, ImageNet JPEGs, and a text corpus — are
// proprietary or impractically large, so each generator reproduces the
// properties the experiments actually depend on:
//
//   - the file count / directory count / file size statistics of Table II
//     (scaled by the caller), and
//   - the byte-level statistics that determine each dataset's
//     compressibility band (Table IV): smooth 16-bit imagery compresses
//     2-4x with fast LZ and ~4x with lzma-class codecs; mostly-empty CT
//     volumes reach 6-11x; JPEG entropy-coded payloads stay at 1.0x;
//     Zipfian text lands between.
//
// All generators are deterministic in (Kind, Seed, index), so experiments
// are reproducible and nodes of a simulated cluster can regenerate the
// same "dataset" independently.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Kind identifies one of the six evaluation datasets.
type Kind int

// The six datasets of Table II.
const (
	EM Kind = iota
	Tokamak
	Lung
	Astro
	ImageNet
	Language
	numKinds
)

// Spec carries the Table II statistics for a dataset.
type Spec struct {
	Name     string
	Format   string
	NumFiles int   // paper-scale file count
	NumDirs  int   // directory count (metadata workload shape)
	AvgSize  int64 // average file size in bytes
}

// specs mirrors Table II.
var specs = [numKinds]Spec{
	EM:       {Name: "EM", Format: "tif", NumFiles: 600_000, NumDirs: 6, AvgSize: 1_600_000},
	Tokamak:  {Name: "Tokamak", Format: "npz", NumFiles: 580_000, NumDirs: 1, AvgSize: 1200},
	Lung:     {Name: "Lung image", Format: "nii", NumFiles: 1400, NumDirs: 2, AvgSize: 1_300_000},
	Astro:    {Name: "Astronomy image", Format: "FITS", NumFiles: 17_700, NumDirs: 1, AvgSize: 6_000_000},
	ImageNet: {Name: "ImageNet", Format: "jpg", NumFiles: 1_300_000, NumDirs: 2002, AvgSize: 100_000},
	Language: {Name: "Language", Format: "txt", NumFiles: 8, NumDirs: 1, AvgSize: 4_000_000},
}

// Spec returns the Table II statistics for the dataset.
func (k Kind) Spec() Spec { return specs[k] }

func (k Kind) String() string { return specs[k].Name }

// Kinds lists all datasets in Table II order.
func Kinds() []Kind {
	return []Kind{EM, Tokamak, Lung, Astro, ImageNet, Language}
}

// aliases are the short names the commands accept beside Table II's.
var aliases = map[string]Kind{
	"rs": Tokamak, "lung": Lung, "astro": Astro, "astronomy": Astro, "text": Language,
}

// KindByName resolves a dataset by its Table II name or format, or by a
// short alias, case-insensitively.
func KindByName(name string) (Kind, bool) {
	for _, k := range Kinds() {
		if s := k.Spec(); strings.EqualFold(s.Name, name) || strings.EqualFold(s.Format, name) {
			return k, true
		}
	}
	k, ok := aliases[strings.ToLower(name)]
	return k, ok
}

// File is one generated dataset member.
type File struct {
	Path string
	Data []byte
}

// Generator produces the files of one synthetic dataset.
type Generator struct {
	Kind Kind
	Seed int64
	// Size overrides the per-file payload size; zero means the
	// dataset's Table II average.
	Size int
}

// fileSize returns the deterministic size of file i (the spec average
// with mild variance, as real datasets are not uniform).
func (g Generator) fileSize(i int) int {
	if g.Size > 0 {
		return g.Size
	}
	rng := rand.New(rand.NewSource(g.Seed ^ int64(i)*0x5851F42D4C957F2D ^ 0x517))
	avg := float64(g.Kind.Spec().AvgSize)
	s := int(avg * (0.85 + 0.3*rng.Float64()))
	if s < 64 {
		s = 64
	}
	return s
}

// Path returns the deterministic path of file i, spreading files over the
// spec's directory count (scaled down when fewer files are generated).
func (g Generator) Path(i, total int) string {
	spec := g.Kind.Spec()
	dirs := spec.NumDirs
	if total < dirs {
		dirs = total
	}
	if dirs < 1 {
		dirs = 1
	}
	prefix := map[Kind]string{
		EM: "em", Tokamak: "tokamak", Lung: "lung",
		Astro: "astro", ImageNet: "imagenet", Language: "language",
	}[g.Kind]
	if dirs == 1 {
		return fmt.Sprintf("%s/f%06d.%s", prefix, i, spec.Format)
	}
	return fmt.Sprintf("%s/d%04d/f%06d.%s", prefix, i%dirs, i, spec.Format)
}

// File generates file i of a dataset with `total` files.
func (g Generator) File(i, total int) File {
	return File{Path: g.Path(i, total), Data: g.Bytes(i)}
}

// Files generates the first n files of the dataset.
func (g Generator) Files(n int) []File {
	out := make([]File, n)
	for i := range out {
		out[i] = g.File(i, n)
	}
	return out
}

// Bytes generates the payload of file i.
func (g Generator) Bytes(i int) []byte {
	size := g.fileSize(i)
	rng := rand.New(rand.NewSource(g.Seed ^ int64(i)*0x5851F42D4C957F2D))
	switch g.Kind {
	case EM:
		return genEM(rng, size)
	case Tokamak:
		return genTokamak(rng, size)
	case Lung:
		return genLung(rng, size)
	case Astro:
		return genAstro(rng, size)
	case ImageNet:
		return genImageNet(rng, size)
	case Language:
		return genLanguage(rng, size)
	}
	panic(fmt.Sprintf("dataset: unknown kind %d", g.Kind))
}

// genEM emits a TIFF-like file: a small header then smooth 16-bit
// little-endian scan data (scanning electron microscopy of tissue:
// large-scale structure plus fine shot noise). Lands in the 2-4x band.
func genEM(rng *rand.Rand, size int) []byte {
	out := make([]byte, 0, size)
	out = append(out, 'I', 'I', 42, 0, 8, 0, 0, 0) // TIFF little-endian magic
	n := (size - len(out)) / 2
	noise := newValueNoise(rng, 64)
	// Detector counts plateau over short runs (beam dwell), with occasional
	// shot noise: that byte-level redundancy is what puts real EM TIFFs in
	// the 2-4x band.
	for i := 0; i < n; {
		run := 2 + rng.Intn(8)
		v := int(20000 + 12000*noise.at(i) + float64(rng.Intn(97)-48))
		for j := 0; j < run && i < n; j++ {
			out = append(out, byte(v), byte(v>>8))
			i++
		}
	}
	for len(out) < size {
		out = append(out, 0)
	}
	return out
}

// genTokamak emits an NPZ-like record: a zip-ish local header with a
// member name, then float32 diagnostic channels that vary slowly in time.
// Individual files are ~1.2 KB; headers repeat across the dataset, which
// is why packed partitions compress better than single files (§VII-E2).
func genTokamak(rng *rand.Rand, size int) []byte {
	out := make([]byte, 0, size)
	out = append(out, 'P', 'K', 3, 4)
	out = append(out, []byte("\x14\x00\x00\x00\x00\x00shot/signal_0.npy\x93NUMPY\x01\x00")...)
	// Diagnostic channels are ADC counts: integer-valued float32 samples
	// from a slow random walk. Integer floats zero the low mantissa bytes,
	// matching the compressibility of real plasma diagnostics.
	// Sensors are oversampled relative to the plasma dynamics: each
	// reading holds for several samples, giving LZ matches as in real
	// diagnostic archives.
	v := float64(200 + rng.Intn(2000))
	for len(out)+4 <= size {
		v += float64(rng.Intn(21) - 10)
		if v < 0 {
			v = 0
		}
		bits := math.Float32bits(float32(int32(v)))
		hold := 3 + rng.Intn(6)
		for h := 0; h < hold && len(out)+4 <= size; h++ {
			out = append(out, byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24))
		}
	}
	for len(out) < size {
		out = append(out, 0)
	}
	return out
}

// genLung emits a NIfTI-like CT slice: a 352-byte header, a mostly-zero
// background (air around the patient), and a smooth elliptical body
// region. The large zero fraction gives the 6-11x band of Table IV.
func genLung(rng *rand.Rand, size int) []byte {
	out := make([]byte, 0, size)
	hdr := make([]byte, 352)
	copy(hdr, []byte{92, 1, 0, 0}) // sizeof_hdr = 348
	copy(hdr[344:], []byte("n+1\x00"))
	out = append(out, hdr...)
	n := (size - len(out)) / 2
	width := 384
	height := n/width + 1
	noise := newValueNoise(rng, 48)
	for i := 0; i < n; {
		x, y := i%width, i/width
		// Elliptical body mask around the slice center; outside is air (0).
		dx := float64(x-width/2) / float64(width/2)
		dy := (float64(y) - float64(height)/2) / (float64(height)/2 + 1)
		if dx*dx+dy*dy >= 0.55 {
			out = append(out, 0, 0)
			i++
			continue
		}
		// Tissue plateaus: CT values are locally uniform.
		run := 2 + rng.Intn(10)
		v := int(800 + 500*noise.at(i) + float64(rng.Intn(17)-8))
		for j := 0; j < run && i < n && i%width >= x; j++ {
			out = append(out, byte(v), byte(v>>8))
			i++
		}
	}
	for len(out) < size {
		out = append(out, 0)
	}
	return out
}

// genAstro emits a FITS-like image: 2880-byte ASCII header block, then
// 16-bit big-endian pixels of sky background noise with occasional stars.
func genAstro(rng *rand.Rand, size int) []byte {
	out := make([]byte, 0, size)
	hdr := make([]byte, 2880)
	for i := range hdr {
		hdr[i] = ' '
	}
	copy(hdr, "SIMPLE  =                    T / conforms to FITS standard")
	copy(hdr[80:], "BITPIX  =                   16 / bits per pixel")
	copy(hdr[160:], "NAXIS   =                    2")
	copy(hdr[240:], "END")
	if len(hdr) > size {
		hdr = hdr[:size] // tiny test files: truncate the header block
	}
	out = append(out, hdr...)
	n := (size - len(out)) / 2
	for i := 0; i < n; {
		// Sky background: locally flat (read noise rides on a smooth
		// pedestal, and adjacent pixels repeat), with occasional stars.
		v := 1200 + rng.Intn(25) - 12
		if rng.Intn(512) == 0 {
			v += rng.Intn(30000) // a star
		}
		hold := 1 + rng.Intn(4)
		for h := 0; h < hold && i < n; h++ {
			out = append(out, byte(v>>8), byte(v)) // big-endian, per FITS
			i++
		}
	}
	for len(out) < size {
		out = append(out, 0)
	}
	return out
}

// genImageNet emits a JPEG-like file: JFIF markers and quantization-table
// preamble, then entropy-coded payload, which is indistinguishable from
// random bytes. This is why ImageNet's ratio is 1.0 for every lossless
// compressor in Table IV.
func genImageNet(rng *rand.Rand, size int) []byte {
	out := make([]byte, 0, size)
	out = append(out, 0xFF, 0xD8, 0xFF, 0xE0, 0x00, 0x10, 'J', 'F', 'I', 'F', 0x00)
	body := make([]byte, size-len(out)-2)
	rng.Read(body)
	// JPEG byte-stuffs 0xFF in entropy-coded data; mimic so scans for
	// markers behave realistically.
	for i := range body {
		if body[i] == 0xFF {
			body[i] = 0xFE
		}
	}
	out = append(out, body...)
	out = append(out, 0xFF, 0xD9)
	return out
}

// zipfWords is a small vocabulary sampled with a Zipf distribution,
// giving natural-language-like repetition statistics.
var zipfWords = []string{
	"the", "of", "and", "to", "a", "in", "that", "is", "was", "he",
	"for", "it", "with", "as", "his", "on", "be", "at", "by", "i",
	"this", "had", "not", "are", "but", "from", "or", "have", "an", "they",
	"which", "one", "you", "were", "her", "all", "she", "there", "would", "their",
	"we", "him", "been", "has", "when", "who", "will", "more", "no", "if",
	"out", "so", "said", "what", "up", "its", "about", "into", "than", "them",
	"can", "only", "other", "new", "some", "could", "time", "these", "two", "may",
	"then", "do", "first", "any", "my", "now", "such", "like", "our", "over",
	"man", "me", "even", "most", "made", "after", "also", "did", "many", "before",
	"must", "through", "back", "years", "where", "much", "your", "way", "well", "down",
	"should", "because", "each", "just", "those", "people", "mr", "how", "too", "little",
	"state", "good", "very", "make", "world", "still", "own", "see", "men", "work",
	"long", "get", "here", "between", "both", "life", "being", "under", "never", "day",
	"same", "another", "know", "while", "last", "might", "us", "great", "old", "year",
	"off", "come", "since", "against", "go", "came", "right", "used", "take", "three",
}

// genLanguage emits Zipfian text, the paper's 4 MB-average txt corpus.
func genLanguage(rng *rand.Rand, size int) []byte {
	z := rand.NewZipf(rng, 1.3, 1.0, uint64(len(zipfWords)-1))
	out := make([]byte, 0, size)
	col := 0
	for len(out) < size {
		w := zipfWords[z.Uint64()]
		out = append(out, w...)
		col += len(w) + 1
		if col > 72 {
			out = append(out, '\n')
			col = 0
		} else {
			out = append(out, ' ')
		}
	}
	return out[:size]
}

// valueNoise is 1-D lattice value noise with linear interpolation: random
// control points every `period` samples, smoothly interpolated. It is the
// shared "large-scale structure" ingredient of the imaging generators.
type valueNoise struct {
	lattice []float64
	period  int
}

func newValueNoise(rng *rand.Rand, period int) *valueNoise {
	l := make([]float64, 4096)
	for i := range l {
		l[i] = rng.Float64()
	}
	return &valueNoise{lattice: l, period: period}
}

// at returns the noise value in [0,1) at sample position i.
func (v *valueNoise) at(i int) float64 {
	cell := i / v.period
	frac := float64(i%v.period) / float64(v.period)
	a := v.lattice[cell%len(v.lattice)]
	b := v.lattice[(cell+1)%len(v.lattice)]
	return a + (b-a)*frac
}
