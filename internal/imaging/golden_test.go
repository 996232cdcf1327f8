package imaging

import (
	"crypto/sha256"
	"encoding/hex"
	"image"
	"path/filepath"
	"testing"
)

// goldenPix pins the SHA-256 of the Pix bytes each kernel produces on seeded
// Generate inputs, as computed by a per-pixel RGBAAt/SetRGBA reference
// implementation. Any rewrite of a kernel must reproduce them byte for byte:
// perfbench and the workflow checks build their reference images with this
// same package, so this table is the only guard that a kernel still computes
// the original function.
var goldenPix = map[string]string{
	"generate/512x512/s3":               "0b1f14a8d4c780142fcd777536e7d72dc181daaea6624d06e061d807b7eea35c",
	"generate/64x48/s1":                 "affcba465c009c161ce916ad6b89f6c72953034ec7ce85a43a03c9bcde2769ad",
	"generate/97x61/s9":                 "d5ab2c59932f56611fb81a3b5a6e4d90bb9ca313a099be441f5361aeb22dab72",
	"resize/nearest/512x512->256x256":   "8d922e05fae1cf7ba1bd73e240f2a9e7401f2b283a2dd46866600823932ed934",
	"resize/bilinear/512x512->256x256":  "1a3483a997bc1e2bad0f1c338a1aae79dbaeeb1451bad0c8db89bef1fe439020",
	"resize/nearest/64x48->128x96":      "08c3bbafc7c9d9afd7fcbd460c7d26327a3e2ec37ba1de055084a2386da5c71a",
	"resize/bilinear/64x48->128x96":     "ab048835f2a16cfbc7f81009969eac3f2ac2eb405ad0d8e6a7124d65aeeab4c5",
	"resize/nearest/97x61->40x77":       "4035300a0bbcc7bf4378b84eb3385d1156c05dc6201e51a3110e6c23e244af70",
	"resize/bilinear/97x61->40x77":      "8e5e18bc40c303082290a38985c2bb90d428d03641911ea6b60c4176c5e0e0b9",
	"sepia/97x61":                       "04eb24ffafa8cf972d1a69e66221ea5ec619bc320b5e1dc284c71c5c1bc0e9e9",
	"grayscale/97x61":                   "c8be16c8a16a22710f2931bc39b7f7b830258085cd5685327724aab803fd3ed8",
	"sepia/256x256":                     "af0491e3f7a078b5c228851e9d8a93fed20f69991c19871bebdab58f6d589b9f",
	"boxblur/r1/97x61":                  "a6622efa5159534a55307f463c72054a372f9657a820dca1775c085b6ce4c382",
	"boxblur/r2/97x61":                  "a594a56db7e218e0d14292d31d8d89349004a2c13d261273913502ca5c18704d",
	"boxblur/r1/256x256":                "feb41681c25caa809b88468c44359095b12a98487f7ee33030d58c329001f9ea",
	"gaussian/r2/97x61":                 "cbcc33468d52379dc1a0fedda41dde590b59e5b1b09f39751cb992a14a5a3bf9",
	"pipeline/512x512->256/sepia/blur1": "f1af4835be8d5e33cf5c1a34ffe87e1f71e841650cb0bb9bf564c22ca3cfb26d",
	"sub/sepia/75x47":                   "0010487a19761d72b82cf9a33e8eff5ab032e16662426e0dc939b7bce915d29c",
	"sub/grayscale/75x47":               "0fe25dea28b12ece92e9263c817322adbbdd9849442c3949d8b6ecb69190b9ee",
	"sub/boxblur/r2/75x47":              "d19b2ffeb79eed9d752036b70c7ae4dc3f9fee3ecded74b9ea4e7ea8442ce2b3",
}

func pixHash(img *image.RGBA) string {
	sum := sha256.Sum256(img.Pix)
	return hex.EncodeToString(sum[:])
}

// goldenOutputs computes every image goldenPix pins.
func goldenOutputs(t *testing.T) map[string]*image.RGBA {
	t.Helper()
	must := func(img *image.RGBA, err error) *image.RGBA {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	big := must(Generate(512, 512, 3))
	small := must(Generate(64, 48, 1))
	odd := must(Generate(97, 61, 9))
	half := must(Resize(big, 256, 256, Bilinear))
	out := map[string]*image.RGBA{
		"generate/512x512/s3":              big,
		"generate/64x48/s1":                small,
		"generate/97x61/s9":                odd,
		"resize/nearest/512x512->256x256":  must(Resize(big, 256, 256, Nearest)),
		"resize/bilinear/512x512->256x256": half,
		"resize/nearest/64x48->128x96":     must(Resize(small, 128, 96, Nearest)),
		"resize/bilinear/64x48->128x96":    must(Resize(small, 128, 96, Bilinear)),
		"resize/nearest/97x61->40x77":      must(Resize(odd, 40, 77, Nearest)),
		"resize/bilinear/97x61->40x77":     must(Resize(odd, 40, 77, Bilinear)),
		"sepia/97x61":                      Sepia(odd),
		"grayscale/97x61":                  Grayscale(odd),
		"sepia/256x256":                    Sepia(half),
		"boxblur/r1/97x61":                 must(BoxBlur(odd, 1)),
		"boxblur/r2/97x61":                 must(BoxBlur(odd, 2)),
		"boxblur/r1/256x256":               must(BoxBlur(half, 1)),
		"gaussian/r2/97x61":                must(GaussianBlur(odd, 2)),
	}
	out["pipeline/512x512->256/sepia/blur1"] = must(BoxBlur(Sepia(half), 1))
	// A sub-image has a non-zero origin and a stride wider than its rows;
	// the kernels must index it through both. (Resize is checked on
	// sub-images by TestResizeSubImage instead.)
	sub := odd.SubImage(image.Rect(5, 3, 80, 50)).(*image.RGBA)
	out["sub/sepia/75x47"] = Sepia(sub)
	out["sub/grayscale/75x47"] = Grayscale(sub)
	out["sub/boxblur/r2/75x47"] = must(BoxBlur(sub, 2))
	return out
}

func TestGoldenPixels(t *testing.T) {
	got := goldenOutputs(t)
	for name, want := range goldenPix {
		img, ok := got[name]
		if !ok {
			t.Errorf("%s: no output computed", name)
			continue
		}
		if h := pixHash(img); h != want {
			t.Errorf("%s: Pix sha256 = %s, want %s", name, h, want)
		}
	}
	if len(got) != len(goldenPix) {
		t.Errorf("computed %d outputs, table pins %d", len(got), len(goldenPix))
	}
}

// TestGoldenEncodeRoundTrip checks that every golden output survives
// Encode→Decode with its exact pixels: the files imgtool writes carry the
// pixels, whatever the compression level makes of the bytes.
func TestGoldenEncodeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for name, img := range goldenOutputs(t) {
		path := filepath.Join(dir, "out.png")
		if err := Encode(path, img); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := Decode(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// PNG keeps no origin, so a sub-image's output comes back at (0,0).
		if back.Bounds().Size() != img.Bounds().Size() {
			t.Errorf("%s: size %v, want %v", name, back.Bounds().Size(), img.Bounds().Size())
			continue
		}
		if h := pixHash(toRGBA(back)); h != pixHash(img) {
			t.Errorf("%s: round trip changed the pixels", name)
		}
	}
}

// TestResizeSubImage checks that Resize samples a sub-image's own pixels:
// the result equals resizing a zero-origin copy of the same pixels.
func TestResizeSubImage(t *testing.T) {
	odd, err := Generate(97, 61, 9)
	if err != nil {
		t.Fatal(err)
	}
	sub := odd.SubImage(image.Rect(5, 3, 80, 50)).(*image.RGBA)
	flat := image.NewRGBA(image.Rect(0, 0, 75, 47))
	for y := 0; y < 47; y++ {
		copy(flat.Pix[y*flat.Stride:], sub.Pix[y*sub.Stride:y*sub.Stride+4*75])
	}
	for _, mode := range []ResizeMode{Nearest, Bilinear} {
		got, err := Resize(sub, 31, 20, mode)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Resize(flat, 31, 20, mode)
		if err != nil {
			t.Fatal(err)
		}
		if pixHash(got) != pixHash(want) {
			t.Errorf("mode %v: resizing a sub-image differs from resizing its pixels", mode)
		}
	}
}
