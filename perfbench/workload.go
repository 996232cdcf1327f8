package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"image"
	"image/png"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

	"repro/internal/imaging"
)

// workload is one traffic mix: its documents, its seeded input stream and
// the reference its outputs are checked against. The per-workload constants
// are fixed so every commit measured with the same --seconds does the same
// work. satRate is roughly the saturate throughput measured on a 2-core
// x86-64 VM; it only sizes the saturate phase. pacedRate is a fifth to
// 0.4 of that throughput, not the half a paced phase would usually offer:
// that VM's speed swings by a quarter or more between minutes, and at half
// load a slow minute pushed the server close enough to saturation that the
// latency tails spread between runs past the benchmark's bounds.
type workload struct {
	name string
	// satRate sizes the saturate phase: satRate × satShare × seconds runs.
	satRate float64
	// pacedRate is the open-loop offered rate (runs/s) of the paced phase,
	// which lasts pacedShare × seconds.
	pacedRate float64
	// warmup runs are submitted closed-loop before any phase and waited for.
	warmup int
	// tasks is the tool executions one executed run performs.
	tasks int
	// repeatEvery makes every repeatEvery-th measured submission an exact
	// repeat of a warm-up run from the other tenant (0 = never).
	repeatEvery int
	// docPool is the number of distinct documents submissions draw from.
	docPool int
	// makeInputs returns the inputs of unique submission serial n (draws
	// from rng) and the reference check of its outputs.
	makeInputs func(g *generator, n int) (map[string]any, checker, error)
	// source renders document variant v.
	source func(v int) string
}

// checker verifies one succeeded run's outputs (the decoded "outputs"
// object of its snapshot).
type checker func(outputs map[string]any) error

const (
	satShare   = 0.4
	pacedShare = 0.6
)

var workloads = map[string]*workload{
	"tool-unique": {
		name:       "tool-unique",
		satRate:    900,
		pacedRate:  150,
		warmup:     40,
		tasks:      1,
		docPool:    1,
		source:     func(int) string { return echoCWL },
		makeInputs: echoInputs,
	},
	"image-pipeline": {
		name:       "image-pipeline",
		satRate:    14,
		pacedRate:  5,
		warmup:     10,
		tasks:      3,
		docPool:    1,
		source:     func(int) string { return imageCWL },
		makeInputs: imageInputs,
	},
	"expr-scatter-shared": {
		name:        "expr-scatter-shared",
		satRate:     200,
		pacedRate:   50,
		warmup:      48,
		tasks:       scatterWidth,
		repeatEvery: 3,
		docPool:     512,
		source:      scatterCWL,
		makeInputs:  scatterInputs,
	},
}

// submission is one generated POST /runs.
type submission struct {
	tenant int
	body   []byte
	// key identifies the (document, inputs) pair for the sharing audit.
	key    string
	repeat bool
	check  checker
}

// generator owns the seeded random stream and the input files of one run.
type generator struct {
	rng      *rand.Rand
	salt     int
	inputDir string
	// writes are the input files still to write; they draw nothing from
	// rng, so generate runs them in parallel once the stream is built.
	writes []func() error
}

// stream is the generated submission sequence of one run: warm-up, then the
// saturate and paced phases.
type stream struct {
	warm, sat, paced []*submission
}

// generate builds the seeded submission stream. The program under test sees
// only these bodies and the files under inputDir.
func (w *workload) generate(seed int64, inputDir string, nSat, nPaced int) (*stream, error) {
	g := &generator{rng: rand.New(rand.NewSource(seed)), inputDir: inputDir}
	g.salt = g.rng.Intn(1 << 20)
	serial := 0
	unique := func(tenant int) (*submission, error) {
		v := g.rng.Intn(w.docPool)
		inputs, check, err := w.makeInputs(g, serial)
		serial++
		if err != nil {
			return nil, err
		}
		return newSubmission(tenant, w.source(v), inputs, check)
	}
	st := &stream{}
	for i := 0; i < w.warmup; i++ {
		s, err := unique(i % 2)
		if err != nil {
			return nil, err
		}
		st.warm = append(st.warm, s)
	}
	// Repeats cycle through the other tenant's warm-up runs in a seeded
	// order, so each warm-up result is looked up again within a few hundred
	// submissions and stays in serve's default-sized LRU result cache. (Drawn
	// at random instead, one of five seeds left a warm-up run unpicked for
	// more than a cache's worth of new results, and it was evicted.)
	var cycle [2][]*submission
	var picked [2]int
	for _, i := range g.rng.Perm(len(st.warm)) {
		s := st.warm[i]
		cycle[1-s.tenant] = append(cycle[1-s.tenant], s)
	}
	measured := func(n int) ([]*submission, error) {
		out := make([]*submission, 0, n)
		for i := 0; i < n; i++ {
			tenant := i % 2
			if w.repeatEvery > 0 && i%w.repeatEvery == w.repeatEvery-1 {
				// An exact repeat of a finished warm-up run submitted by the
				// other tenant: the shared result cache answers it at
				// admission.
				orig := cycle[tenant][picked[tenant]%len(cycle[tenant])]
				picked[tenant]++
				out = append(out, &submission{tenant: tenant, body: orig.body, key: orig.key, repeat: true, check: orig.check})
				continue
			}
			s, err := unique(tenant)
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		}
		return out, nil
	}
	var err error
	if st.sat, err = measured(nSat); err != nil {
		return nil, err
	}
	if st.paced, err = measured(nPaced); err != nil {
		return nil, err
	}
	if err := parallel(g.writes); err != nil {
		return nil, err
	}
	// Flush the inputs now, so they are not written back during the
	// measurement. Nothing is flushed after this, between steps or
	// servers, so the write-back of the program's own job directories
	// stays on the clock.
	syscall.Sync()
	return st, nil
}

// parallel runs jobs on conns() goroutines and returns their errors joined.
func parallel(jobs []func() error) error {
	var next atomic.Int64
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for w := 0; w < conns(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				errs[i] = jobs[i]()
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func newSubmission(tenant int, source string, inputs map[string]any, check checker) (*submission, error) {
	body, err := json.Marshal(map[string]any{"cwl": source, "inputs": inputs})
	if err != nil {
		return nil, err
	}
	in, err := json.Marshal(inputs) // map keys marshal sorted: canonical
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256([]byte(source + "\x00" + string(in)))
	return &submission{tenant: tenant, body: body, key: hex.EncodeToString(sum[:]), check: check}, nil
}

// sharingAudit returns how many measured submissions repeat a (document,
// inputs) pair submitted earlier in the run, warm-up included, and how many
// the workload's design says should.
func (w *workload) sharingAudit(st *stream) (repeated, designed, measured int) {
	seen := map[string]bool{}
	for _, s := range st.warm {
		seen[s.key] = true
	}
	for _, phase := range [][]*submission{st.sat, st.paced} {
		for i, s := range phase {
			if seen[s.key] {
				repeated++
			}
			seen[s.key] = true
			if w.repeatEvery > 0 && i%w.repeatEvery == w.repeatEvery-1 {
				designed++
			}
			measured++
		}
	}
	return repeated, designed, measured
}

// words is the vocabulary of generated messages: lowercase ASCII letters
// only, so Python's str.title() reduces to upper-casing each first letter.
var words = strings.Fields(`alpha bravo charlie delta echo foxtrot golf hotel india juliet
kilo lima mike november oscar papa quebec romeo sierra tango uniform victor
whiskey xray yankee zulu common workflow language parsl python graph image
scatter gather stream batch kernel worker engine ledger journal tenant
queue cache river stone cloud ember frost grove harbor island jungle lantern
meadow nectar orbit prism quartz raven`)

// token spells n in lowercase letters: a per-run unique word that keeps
// every message, and so every task's arguments, distinct.
func token(n int) string {
	var b []byte
	for {
		b = append(b, byte('a'+n%26))
		n /= 26
		if n == 0 {
			break
		}
	}
	return "q" + string(b)
}

func (g *generator) message(n, slot int) string {
	k := 2 + g.rng.Intn(4)
	parts := make([]string, 0, k+1)
	for i := 0; i < k; i++ {
		parts = append(parts, words[g.rng.Intn(len(words))])
	}
	parts = append(parts, token((g.salt+n)*16+slot))
	return strings.Join(parts, " ")
}

func title(s string) string {
	f := strings.Fields(s)
	for i, w := range f {
		f[i] = strings.ToUpper(w[:1]) + w[1:]
	}
	return strings.Join(f, " ")
}

const echoCWL = `cwlVersion: v1.2
class: CommandLineTool
baseCommand: echo
inputs:
  message:
    type: string
    inputBinding: {position: 1}
outputs:
  out:
    type: stdout
stdout: message.txt
`

func echoInputs(g *generator, n int) (map[string]any, checker, error) {
	msg := g.message(n, 0)
	return map[string]any{"message": msg}, func(out map[string]any) error {
		return checkFileText(out["out"], msg+"\n")
	}, nil
}

// scatterWidth is the fan-out of the expr-scatter-shared workflow.
const scatterWidth = 8

// scatterCWL is the paper's Listing 5 capitalize_words tool scattered over
// a list of messages. The label varies by variant, so the pool's documents
// hash differently and miss the parsed-document cache.
func scatterCWL(v int) string {
	return fmt.Sprintf(`cwlVersion: v1.2
class: Workflow
label: capitalize sweep %04d
requirements:
  - class: ScatterFeatureRequirement
inputs:
  messages:
    type: string[]
outputs:
  capitalized:
    type: File[]
    outputSource: capitalize/out
steps:
  capitalize:
    run:
      class: CommandLineTool
      requirements:
        - class: InlinePythonRequirement
          expressionLib:
            - |
              def capitalize_words(message):
                  """
                  Capitalize each word in the given message.
                  """
                  return message.title()
      baseCommand: echo
      inputs:
        message:
          type: string
      arguments:
        - f"{capitalize_words($(inputs.message))}"
      outputs:
        out:
          type: stdout
      stdout: capitalized.txt
    scatter: message
    in:
      message: messages
    out: [out]
`, v)
}

func scatterInputs(g *generator, n int) (map[string]any, checker, error) {
	msgs := make([]any, scatterWidth)
	want := make([]string, scatterWidth)
	for i := range msgs {
		m := g.message(n, i)
		msgs[i] = m
		want[i] = title(m) + "\n"
	}
	return map[string]any{"messages": msgs}, func(out map[string]any) error {
		files, ok := out["capitalized"].([]any)
		if !ok || len(files) != len(want) {
			return fmt.Errorf("capitalized: want %d files, got %v", len(want), out["capitalized"])
		}
		for i, f := range files {
			if err := checkFileText(f, want[i]); err != nil {
				return fmt.Errorf("capitalized[%d]: %w", i, err)
			}
		}
		return nil
	}, nil
}

// imageCWL is the paper's §IV workflow: resize → sepia → blur, as one
// Workflow whose steps pass Files and glob their outputs.
const imageCWL = `cwlVersion: v1.2
class: Workflow
inputs:
  input_image: File
  size: int
  radius: int
outputs:
  output_image:
    type: File
    outputSource: blur/output_image
steps:
  resize:
    run:
      class: CommandLineTool
      baseCommand: [imgtool, resize]
      inputs:
        size:
          type: int
          inputBinding: {prefix: --size}
        input_image:
          type: File
          inputBinding: {position: 1}
        output_image:
          type: string
          inputBinding: {position: 2}
      outputs:
        output_image:
          type: File
          outputBinding:
            glob: $(inputs.output_image)
    in:
      size: size
      input_image: input_image
      output_image: {default: resized.png}
    out: [output_image]
  sepia:
    run:
      class: CommandLineTool
      baseCommand: [imgtool, filter]
      inputs:
        sepia:
          type: boolean
          inputBinding: {prefix: --sepia}
        input_image:
          type: File
          inputBinding: {position: 1}
        output_image:
          type: string
          inputBinding: {position: 2}
      outputs:
        output_image:
          type: File
          outputBinding:
            glob: $(inputs.output_image)
    in:
      sepia: {default: true}
      input_image: resize/output_image
      output_image: {default: sepia.png}
    out: [output_image]
  blur:
    run:
      class: CommandLineTool
      baseCommand: [imgtool, blur]
      inputs:
        radius:
          type: int
          inputBinding: {prefix: --radius}
        input_image:
          type: File
          inputBinding: {position: 1}
        output_image:
          type: string
          inputBinding: {position: 2}
      outputs:
        output_image:
          type: File
          outputBinding:
            glob: $(inputs.output_image)
    in:
      radius: radius
      input_image: sepia/output_image
      output_image: {default: blurred.png}
    out: [output_image]
`

// Image-pipeline shape, as in examples/imagepipeline: square source images
// twice the resize target, resized to 256 px, then sepia and a blur of
// radius 1. Every run gets its own seeded source image, so every (image,
// size) pair is distinct.
const (
	imageSize  = 256
	imageSrc   = 2 * imageSize
	blurRadius = 1
)

func imageInputs(g *generator, n int) (map[string]any, checker, error) {
	seed := int64(g.salt)<<24 + int64(n)
	path := filepath.Join(g.inputDir, fmt.Sprintf("img-%05d.png", n))
	g.writes = append(g.writes, func() error {
		src, err := imaging.Generate(imageSrc, imageSrc, seed)
		if err != nil {
			return err
		}
		return writeFastPNG(path, src)
	})
	inputs := map[string]any{
		"input_image": map[string]any{"class": "File", "path": path},
		"size":        imageSize,
		"radius":      blurRadius,
	}
	return inputs, func(out map[string]any) error {
		got, err := imaging.Decode(filePath(out["output_image"]))
		if err != nil {
			return err
		}
		// Regenerated rather than kept: a run's sources would hold
		// hundreds of MiB.
		src, err := imaging.Generate(imageSrc, imageSrc, seed)
		if err != nil {
			return err
		}
		resized, err := imaging.Resize(src, imageSize, imageSize, imaging.Bilinear)
		if err != nil {
			return err
		}
		want, err := imaging.BoxBlur(imaging.Sepia(resized), blurRadius)
		if err != nil {
			return err
		}
		return samePixels(got, want)
	}, nil
}

// writeFastPNG writes a generated input image with the fastest compression:
// the pixels are what the workflow reads, and the default level would make
// writing the inputs the slowest part of a run's preparation.
func writeFastPNG(path string, img image.Image) error {
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

func samePixels(got, want image.Image) error {
	if got.Bounds() != want.Bounds() {
		return fmt.Errorf("image bounds %v, want %v", got.Bounds(), want.Bounds())
	}
	b := want.Bounds()
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			gr, gg, gb, ga := got.At(x, y).RGBA()
			wr, wg, wb, wa := want.At(x, y).RGBA()
			if gr != wr || gg != wg || gb != wb || ga != wa {
				return fmt.Errorf("pixel (%d,%d) differs from the in-process reference", x, y)
			}
		}
	}
	return nil
}

func filePath(v any) string {
	if m, ok := v.(map[string]any); ok {
		if p, ok := m["path"].(string); ok {
			return p
		}
	}
	return ""
}

func checkFileText(v any, want string) error {
	p := filePath(v)
	if p == "" {
		return fmt.Errorf("output is not a File: %v", v)
	}
	got, err := os.ReadFile(p)
	if err != nil {
		return err
	}
	if string(got) != want {
		return fmt.Errorf("%s holds %q, want %q", filepath.Base(p), got, want)
	}
	return nil
}
