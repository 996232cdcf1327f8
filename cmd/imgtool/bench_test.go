package main

import (
	"image/png"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/imaging"
)

// BenchmarkImgtoolStages measures one §IV image run as the workflow's tasks
// do it: run() for resize → sepia filter → blur, each stage decoding its
// input PNG and encoding its output. Every op does the same work on the same
// seeded 512-px source, resized to 256 px, so ns/op is the per-run CPU of
// the three imgtool processes minus process start-up.
func BenchmarkImgtoolStages(b *testing.B) {
	dir := b.TempDir()
	src := filepath.Join(dir, "src.png")
	img, err := imaging.Generate(512, 512, 7)
	if err != nil {
		b.Fatal(err)
	}
	// The source is written the way the benchmark harness writes its
	// inputs, independent of the level imaging.Encode uses.
	f, err := os.Create(src)
	if err != nil {
		b.Fatal(err)
	}
	if err := (&png.Encoder{CompressionLevel: png.BestSpeed}).Encode(f, img); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	resized := filepath.Join(dir, "resized.png")
	filtered := filepath.Join(dir, "filtered.png")
	blurred := filepath.Join(dir, "blurred.png")
	stages := [][]string{
		{"resize", "--size", "256", src, resized},
		{"filter", "--sepia", resized, filtered},
		{"blur", "--radius", "1", filtered, blurred},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, args := range stages {
			if err := run(args); err != nil {
				b.Fatal(err)
			}
		}
	}
}
