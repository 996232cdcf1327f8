package main

import (
	"encoding/json"
	"fmt"
	"image"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cwl"
	"repro/internal/cwlexpr"
	"repro/internal/imaging"
	"repro/internal/runner"
	"repro/internal/service"
	"repro/internal/yamlx"
)

// probeSamples is how many of the workload's measured submissions the
// direct layer timings sample.
const probeSamples = 48

// probeJob is one tool invocation taken from a sampled submission: the
// submitted tool itself, or the first step of a submitted Workflow with the
// step's inputs resolved from the workflow inputs (first scatter element).
type probeJob struct {
	source string
	tool   *cwl.CommandLineTool
	inputs *yamlx.Map
	wf     *yamlx.Map // the submission's workflow inputs
}

func sampleJobs(st *stream) ([]probeJob, error) {
	var subs []*submission
	for _, s := range append(append([]*submission(nil), st.sat...), st.paced...) {
		if !s.repeat {
			subs = append(subs, s)
		}
	}
	stride := max(len(subs)/probeSamples, 1)
	var jobs []probeJob
	for i := 0; i < len(subs) && len(jobs) < probeSamples; i += stride {
		var body struct {
			CWL    string          `json:"cwl"`
			Inputs json.RawMessage `json:"inputs"`
		}
		if err := json.Unmarshal(subs[i].body, &body); err != nil {
			return nil, err
		}
		v, err := yamlx.DecodeJSON(body.Inputs)
		if err != nil {
			return nil, err
		}
		inputs, _ := v.(*yamlx.Map)
		doc, err := cwl.ParseBytes([]byte(body.CWL), "", nil)
		if err != nil {
			return nil, err
		}
		job := probeJob{source: body.CWL, inputs: inputs, wf: inputs}
		switch d := doc.(type) {
		case *cwl.CommandLineTool:
			job.tool = d
		case *cwl.Workflow:
			step := d.Steps[0]
			tool, ok := step.Run.(*cwl.CommandLineTool)
			if !ok {
				return nil, fmt.Errorf("first step of the workflow is not a CommandLineTool")
			}
			job.tool, job.inputs = tool, yamlx.NewMap()
			for _, in := range step.In {
				switch {
				case len(in.Source) > 0:
					val := inputs.Value(in.Source[0])
					for _, sc := range step.Scatter {
						if sc == in.ID {
							if list, ok := val.([]any); ok && len(list) > 0 {
								val = list[0]
							}
						}
					}
					job.inputs.Set(in.ID, val)
				case in.HasDef:
					job.inputs.Set(in.ID, in.Default)
				}
			}
		}
		jobs = append(jobs, job)
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("no submissions to sample")
	}
	return jobs, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layerProbes times calls into the layers the workload exercises, on its own
// sampled documents and inputs, with the service idle.
func layerProbes(res *result, o options, st *stream) error {
	jobs, err := sampleJobs(st)
	if err != nil {
		return err
	}

	// cwl: a parsed-document cache miss on each sampled document.
	var parse []float64
	for _, j := range jobs {
		cache := service.NewDocCache(0, 0)
		start := time.Now()
		if _, _, _, hit, err := cache.LoadIndexed([]byte(j.source)); err != nil || hit {
			return fmt.Errorf("parsing a sampled document: hit=%v err=%v", hit, err)
		}
		parse = append(parse, us(time.Since(start)))
	}
	res.set("cwl.parse_us", median(parse), "us", fmt.Sprintf("(DocCache.LoadIndexed misses on sampled documents: n=%d)", len(parse)))

	// worker: the runner's whole tool invocation against its bare exec.
	dir := filepath.Join(o.tmpRoot, "probes")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var runTool, execBare, stage, eval []float64
	for i, j := range jobs {
		tr := &runner.ToolRunner{WorkRoot: filepath.Join(dir, "runtool")}
		start := time.Now()
		if _, err := tr.RunTool(j.tool, j.inputs, runner.RunOpts{}); err != nil {
			return fmt.Errorf("RunTool on a sampled job: %w", err)
		}
		rt := us(time.Since(start))

		eng, err := cwlexpr.SharedEngine(j.tool.Hints.Merge(j.tool.Requirements))
		if err != nil {
			return err
		}
		inputs, err := runner.ProcessInputs(j.tool.Inputs, j.inputs, eng, "")
		if err != nil {
			return err
		}
		out := filepath.Join(dir, fmt.Sprintf("bare-%03d", i))
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
		rtx := runner.RuntimeContext(out, out, 1, 1024)
		argv, _, err := runner.BuildCommandLine(j.tool, inputs, eng, rtx)
		if err != nil {
			return err
		}
		start = time.Now()
		r, err := runner.RealBackend{}.Run(runner.ExecSpec{Argv: argv, Dir: out, Stdout: filepath.Join(out, "stdout")})
		if err != nil || r.ExitCode != 0 {
			return fmt.Errorf("bare exec of %v: exit %d: %v", argv, r.ExitCode, err)
		}
		ex := us(time.Since(start))
		runTool, execBare, stage = append(runTool, rt), append(execBare, ex), append(stage, rt-ex)

		// cwlexpr: every expression call site of the tool.
		ctx := cwlexpr.Context{Inputs: inputs, Runtime: rtx}
		for _, src := range callSites(j.tool) {
			start = time.Now()
			if _, err := eng.Eval(src, ctx); err != nil {
				return fmt.Errorf("evaluating %q: %w", src, err)
			}
			eval = append(eval, us(time.Since(start)))
		}
	}
	res.set("worker.run_tool_us", median(runTool), "us", fmt.Sprintf("(runner.ToolRunner.RunTool on sampled jobs: n=%d)", len(runTool)))
	res.set("worker.exec_us", median(execBare), "us", fmt.Sprintf("(BuildCommandLine argv exec'd bare: n=%d)", len(execBare)))
	res.set("worker.stage_collect_us", median(stage), "us", fmt.Sprintf("(RunTool minus bare exec, per job: n=%d)", len(stage)))
	res.set("provider.wire_us", res.metrics["provider.roundtrip_us"].Value-median(runTool), "us", "(provider.roundtrip_us − worker.run_tool_us)")
	res.set("cwlexpr.eval_us", median(eval), "us", fmt.Sprintf("(cwlexpr.Engine.Eval on the tools' call sites: n=%d)", len(eval)))

	// imaging: the three kernels of each sampled image run, in-process.
	var kernel, mpix []float64
	for _, j := range jobs {
		img := j.wf.GetMap("input_image").GetString("path")
		if img == "" {
			continue // not an image workload
		}
		src, err := imaging.Decode(img)
		if err != nil {
			return err
		}
		size := j.wf.GetInt("size", 0)
		radius := j.wf.GetInt("radius", 0)
		start := time.Now()
		resized, err := imaging.Resize(src, size, size, imaging.Bilinear)
		if err != nil {
			return err
		}
		if _, err := imaging.BoxBlur(imaging.Sepia(resized), radius); err != nil {
			return err
		}
		kernel = append(kernel, ms(time.Since(start)))
		mpix = append(mpix, float64(pixels(src)+2*pixels(resized))/1e6)
	}
	basis := fmt.Sprintf("(Resize+Sepia+BoxBlur on sampled runs' images: n=%d)", len(kernel))
	if len(kernel) == 0 {
		basis = "(not exercised by this workload: n=0)"
	}
	res.set("imaging.kernel_ms", median(kernel), "ms", basis)
	res.set("imaging.mpixels_per_run", median(mpix), "Mpixel", basis)
	return nil
}

// callSites lists the expressions a tool evaluates per invocation:
// arguments and output globs.
func callSites(t *cwl.CommandLineTool) []string {
	var out []string
	for _, a := range t.Arguments {
		if cwlexpr.NeedsEval(a.ValueFrom) {
			out = append(out, a.ValueFrom)
		}
	}
	for _, o := range t.Outputs {
		if o.Binding == nil {
			continue
		}
		for _, g := range o.Binding.Glob {
			if cwlexpr.NeedsEval(g) {
				out = append(out, g)
			}
		}
	}
	return out
}

func pixels(img image.Image) int { return img.Bounds().Dx() * img.Bounds().Dy() }
