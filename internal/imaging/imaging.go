// Package imaging implements the image operations behind the paper's §IV
// workflow — resize, sepia filter, blur — plus generation of synthetic test
// images, all on the standard library's image types. The cmd/imgtool binary
// exposes them as the command-line tools the CWL definitions invoke, so the
// workflow's steps do real pixel work on real files.
package imaging

import (
	"fmt"
	"image"
	"image/png"
	"math"
	"os"
)

// Decode reads a PNG image from disk.
func Decode(path string) (image.Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	img, err := png.Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return img, nil
}

// Encode writes a PNG image to disk at png.BestSpeed. The contract of the
// files this package writes is their pixels, not their bytes: on the §IV
// workflow's three outputs the default level took three times the CPU for
// files 8% smaller, and the next step decodes them straight away.
func Encode(path string, img image.Image) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := png.Encoder{CompressionLevel: png.BestSpeed}
	if err := enc.Encode(f, img); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// toRGBA normalizes any image to RGBA for uniform pixel access.
func toRGBA(img image.Image) *image.RGBA {
	if r, ok := img.(*image.RGBA); ok {
		return r
	}
	b := img.Bounds()
	out := image.NewRGBA(image.Rect(0, 0, b.Dx(), b.Dy()))
	for y := 0; y < b.Dy(); y++ {
		for x := 0; x < b.Dx(); x++ {
			out.Set(x, y, img.At(b.Min.X+x, b.Min.Y+y))
		}
	}
	return out
}

// row returns the 4*w bytes of row y (counted from the image's top edge)
// of an RGBA image w pixels wide, for the kernels to index directly.
func row(img *image.RGBA, y, w int) []uint8 {
	i := y * img.Stride
	return img.Pix[i : i+4*w : i+4*w]
}

// clampIndex clamps v into [0, n).
func clampIndex(v, n int) int {
	if v < 0 {
		return 0
	}
	if v >= n {
		return n - 1
	}
	return v
}

// ResizeMode selects the sampling filter.
type ResizeMode int

const (
	// Nearest is nearest-neighbour sampling.
	Nearest ResizeMode = iota
	// Bilinear interpolates between the four surrounding pixels.
	Bilinear
)

// Resize scales img to w×h with the given mode.
func Resize(img image.Image, w, h int, mode ResizeMode) (*image.RGBA, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("imaging: invalid target size %dx%d", w, h)
	}
	src := toRGBA(img)
	sb := src.Bounds()
	sw, sh := sb.Dx(), sb.Dy()
	if sw == 0 || sh == 0 {
		return nil, fmt.Errorf("imaging: empty source image")
	}
	out := image.NewRGBA(image.Rect(0, 0, w, h))
	xRatio := float64(sw) / float64(w)
	yRatio := float64(sh) / float64(h)
	switch mode {
	case Nearest:
		// Source byte offset of each output column within a source row.
		sxs := make([]int, w)
		for x := range sxs {
			sxs[x] = 4 * min(int(float64(x)*xRatio), sw-1)
		}
		for y := 0; y < h; y++ {
			sy := min(int(float64(y)*yRatio), sh-1)
			srow, orow := row(src, sy, sw), row(out, y, w)
			for x, sx := range sxs {
				copy(orow[4*x:4*x+4], srow[sx:sx+4])
			}
		}
	case Bilinear:
		// The horizontal sample positions and weights depend only on the
		// column: compute them once instead of once per pixel.
		x0s := make([]int, w)
		x1s := make([]int, w)
		dxs := make([]float64, w)
		for x := 0; x < w; x++ {
			fx := (float64(x)+0.5)*xRatio - 0.5
			x0 := int(math.Floor(fx))
			dxs[x] = fx - float64(x0)
			x0s[x] = 4 * clampIndex(x0, sw)
			x1s[x] = 4 * clampIndex(x0+1, sw)
		}
		for y := 0; y < h; y++ {
			fy := (float64(y)+0.5)*yRatio - 0.5
			y0 := int(math.Floor(fy))
			dy := fy - float64(y0)
			r0 := row(src, clampIndex(y0, sh), sw)
			r1 := row(src, clampIndex(y0+1, sh), sw)
			orow := row(out, y, w)
			for x := 0; x < w; x++ {
				i0, i1, dx := x0s[x], x1s[x], dxs[x]
				p00, p10 := r0[i0:i0+4:i0+4], r0[i1:i1+4:i1+4]
				p01, p11 := r1[i0:i0+4:i0+4], r1[i1:i1+4:i1+4]
				o := orow[4*x : 4*x+4 : 4*x+4]
				for c := range o {
					top := float64(p00[c])*(1-dx) + float64(p10[c])*dx
					bot := float64(p01[c])*(1-dx) + float64(p11[c])*dx
					o[c] = roundByte(top*(1-dy) + bot*dy)
				}
			}
		}
	}
	return out, nil
}

// roundByte rounds a resampled value to a channel value. It equals
// uint8(math.Round(math.Max(0, math.Min(255, v)))) without the two calls.
func roundByte(v float64) uint8 {
	if v >= 255 {
		return 255
	}
	if v <= 0 {
		return 0
	}
	return uint8(math.Round(v))
}

// clampByte converts a filter result to a channel value, saturating at the
// ends and truncating in between.
func clampByte(v float64) uint8 {
	if v > 255 {
		return 255
	}
	if v < 0 {
		return 0
	}
	return uint8(v)
}

// Sepia applies the standard sepia tone transform.
func Sepia(img image.Image) *image.RGBA {
	src := toRGBA(img)
	b := src.Bounds()
	out := image.NewRGBA(b)
	w := b.Dx()
	for y := 0; y < b.Dy(); y++ {
		srow, orow := row(src, y, w), row(out, y, w)
		for i := 0; i < len(srow); i += 4 {
			r, g, bb := float64(srow[i]), float64(srow[i+1]), float64(srow[i+2])
			o := orow[i : i+4 : i+4]
			o[0] = clampByte(0.393*r + 0.769*g + 0.189*bb)
			o[1] = clampByte(0.349*r + 0.686*g + 0.168*bb)
			o[2] = clampByte(0.272*r + 0.534*g + 0.131*bb)
			o[3] = srow[i+3]
		}
	}
	return out
}

// Grayscale converts to luminance (Rec. 601 weights).
func Grayscale(img image.Image) *image.RGBA {
	src := toRGBA(img)
	b := src.Bounds()
	out := image.NewRGBA(b)
	w := b.Dx()
	for y := 0; y < b.Dy(); y++ {
		srow, orow := row(src, y, w), row(out, y, w)
		for i := 0; i < len(srow); i += 4 {
			l := uint8(0.299*float64(srow[i]) + 0.587*float64(srow[i+1]) + 0.114*float64(srow[i+2]))
			o := orow[i : i+4 : i+4]
			o[0], o[1], o[2], o[3] = l, l, l, srow[i+3]
		}
	}
	return out
}

// BoxBlur applies a box filter of the given radius using a separable
// two-pass (horizontal then vertical) sliding window, O(pixels) per pass.
func BoxBlur(img image.Image, radius int) (*image.RGBA, error) {
	if radius < 0 {
		return nil, fmt.Errorf("imaging: negative blur radius %d", radius)
	}
	src := toRGBA(img)
	if radius == 0 {
		return src, nil
	}
	b := src.Bounds()
	w, h := b.Dx(), b.Dy()
	tmp := image.NewRGBA(image.Rect(0, 0, w, h))
	out := image.NewRGBA(image.Rect(0, 0, w, h))
	window := 2*radius + 1

	// Horizontal pass: one running sum per channel slides along each row.
	for y := 0; y < h; y++ {
		srow, trow := row(src, y, w), row(tmp, y, w)
		var sum [4]int
		for i := -radius; i <= radius; i++ {
			p := 4 * clampIndex(i, w)
			for c := range sum {
				sum[c] += int(srow[p+c])
			}
		}
		for x := 0; x < w; x++ {
			for c := range sum {
				trow[4*x+c] = uint8(sum[c] / window)
			}
			outgoing := 4 * clampIndex(x-radius, w)
			incoming := 4 * clampIndex(x+radius+1, w)
			for c := range sum {
				sum[c] += int(srow[incoming+c]) - int(srow[outgoing+c])
			}
		}
	}
	// Vertical pass: a running sum per column and channel slides down the
	// image one whole row at a time, so every access walks memory in order.
	sums := make([]int, 4*w)
	for i := -radius; i <= radius; i++ {
		for j, v := range row(tmp, clampIndex(i, h), w) {
			sums[j] += int(v)
		}
	}
	for y := 0; y < h; y++ {
		orow := row(out, y, w)
		for j, s := range sums {
			orow[j] = uint8(s / window)
		}
		outgoing := row(tmp, clampIndex(y-radius, h), w)
		incoming := row(tmp, clampIndex(y+radius+1, h), w)
		for j := range sums {
			sums[j] += int(incoming[j]) - int(outgoing[j])
		}
	}
	return out, nil
}

// GaussianBlur approximates a Gaussian with three successive box blurs.
func GaussianBlur(img image.Image, radius int) (*image.RGBA, error) {
	if radius < 0 {
		return nil, fmt.Errorf("imaging: negative blur radius %d", radius)
	}
	out := toRGBA(img)
	var err error
	for i := 0; i < 3; i++ {
		out, err = BoxBlur(out, radius)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Generate builds a deterministic synthetic test image: smooth gradients
// plus seeded noise, so workloads are reproducible and compress poorly
// enough to exercise real I/O.
func Generate(w, h int, seed int64) (*image.RGBA, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("imaging: invalid size %dx%d", w, h)
	}
	out := image.NewRGBA(image.Rect(0, 0, w, h))
	state := uint64(seed)*6364136223846793005 + 1442695040888963407
	for y := 0; y < h; y++ {
		orow := row(out, y, w)
		for x := 0; x < w; x++ {
			state = state*6364136223846793005 + 1442695040888963407
			n := state >> 33
			o := orow[4*x : 4*x+4 : 4*x+4]
			o[0] = uint8((x*255/w + int(n&31)) & 255)
			o[1] = uint8((y*255/h + int((n>>5)&31)) & 255)
			o[2] = uint8(((x+y)*255/(w+h) + int((n>>10)&31)) & 255)
			o[3] = 255
		}
	}
	return out, nil
}

// MeanLuma returns the mean luminance in [0,255]; used by tests and the
// workload verifier.
func MeanLuma(img image.Image) float64 {
	src := toRGBA(img)
	b := src.Bounds()
	total := 0.0
	n := 0
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			p := src.RGBAAt(x, y)
			total += 0.299*float64(p.R) + 0.587*float64(p.G) + 0.114*float64(p.B)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// LumaVariance returns the luminance variance; blurring must not increase it.
func LumaVariance(img image.Image) float64 {
	src := toRGBA(img)
	b := src.Bounds()
	mean := MeanLuma(img)
	total := 0.0
	n := 0
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			p := src.RGBAAt(x, y)
			l := 0.299*float64(p.R) + 0.587*float64(p.G) + 0.114*float64(p.B)
			total += (l - mean) * (l - mean)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}
