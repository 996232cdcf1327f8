// Command imgtool implements the image operations used by the paper's §IV
// workflow as a command-line tool, so the CWL CommandLineTool definitions
// (resize_image.cwl, filter_image.cwl, blur_image.cwl) invoke a real
// executable doing real pixel work.
//
// Every output is a PNG written at png.BestSpeed. The contract is the
// pixels, not the bytes: a step's output decodes to exactly the pixels the
// imaging package computes, while the file's bytes depend on the zlib level.
//
// Usage:
//
//	imgtool resize --size N INPUT OUTPUT
//	imgtool filter [--sepia] INPUT OUTPUT
//	imgtool blur --radius N INPUT OUTPUT
//	imgtool generate --size N --seed S OUTPUT
//	imgtool info INPUT
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/imaging"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "imgtool:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: imgtool <resize|filter|blur|generate|info> ...")
	}
	switch args[0] {
	case "resize":
		fs := flag.NewFlagSet("resize", flag.ContinueOnError)
		size := fs.Int("size", 0, "target size (size×size)")
		bilinear := fs.Bool("bilinear", true, "use bilinear sampling")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		in, out, err := inOut(fs)
		if err != nil {
			return err
		}
		img, err := imaging.Decode(in)
		if err != nil {
			return err
		}
		mode := imaging.Bilinear
		if !*bilinear {
			mode = imaging.Nearest
		}
		res, err := imaging.Resize(img, *size, *size, mode)
		if err != nil {
			return err
		}
		return imaging.Encode(out, res)
	case "filter":
		fs := flag.NewFlagSet("filter", flag.ContinueOnError)
		sepia := fs.Bool("sepia", false, "apply the sepia filter")
		gray := fs.Bool("grayscale", false, "apply grayscale instead of sepia")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		in, out, err := inOut(fs)
		if err != nil {
			return err
		}
		img, err := imaging.Decode(in)
		if err != nil {
			return err
		}
		switch {
		case *gray:
			return imaging.Encode(out, imaging.Grayscale(img))
		case *sepia:
			return imaging.Encode(out, imaging.Sepia(img))
		default:
			// No filter requested: pass through unchanged, as the paper's
			// workflow does when sepia=false.
			return imaging.Encode(out, img)
		}
	case "blur":
		fs := flag.NewFlagSet("blur", flag.ContinueOnError)
		radius := fs.Int("radius", 1, "blur radius in pixels")
		gaussian := fs.Bool("gaussian", false, "use the gaussian approximation")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		in, out, err := inOut(fs)
		if err != nil {
			return err
		}
		img, err := imaging.Decode(in)
		if err != nil {
			return err
		}
		if *gaussian {
			res, err := imaging.GaussianBlur(img, *radius)
			if err != nil {
				return err
			}
			return imaging.Encode(out, res)
		}
		res, err := imaging.BoxBlur(img, *radius)
		if err != nil {
			return err
		}
		return imaging.Encode(out, res)
	case "generate":
		fs := flag.NewFlagSet("generate", flag.ContinueOnError)
		size := fs.Int("size", 256, "image size (size×size)")
		seed := fs.Int64("seed", 1, "generation seed")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if fs.NArg() != 1 {
			return fmt.Errorf("generate: want OUTPUT")
		}
		img, err := imaging.Generate(*size, *size, *seed)
		if err != nil {
			return err
		}
		return imaging.Encode(fs.Arg(0), img)
	case "info":
		if len(args) != 2 {
			return fmt.Errorf("info: want INPUT")
		}
		img, err := imaging.Decode(args[1])
		if err != nil {
			return err
		}
		b := img.Bounds()
		fmt.Printf("%s: %dx%d meanLuma=%.1f\n", args[1], b.Dx(), b.Dy(), imaging.MeanLuma(img))
		return nil
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func inOut(fs *flag.FlagSet) (string, string, error) {
	if fs.NArg() != 2 {
		return "", "", fmt.Errorf("want INPUT OUTPUT, got %d args", fs.NArg())
	}
	return fs.Arg(0), fs.Arg(1), nil
}
