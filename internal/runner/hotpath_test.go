package runner

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cwl"
	"repro/internal/yamlx"
)

// TestRunToolCleansGeneratedDirOnError pins the failure-path cleanup
// contract: a generated job directory is removed when the tool fails, kept
// when KeepDirs is set, and caller-supplied directories are never touched.
func TestRunToolCleansGeneratedDirOnError(t *testing.T) {
	failing := mustTool(t, `
cwlVersion: v1.2
class: CommandLineTool
baseCommand: ["false"]
inputs: {}
outputs: {}
`)
	workRoot := t.TempDir()
	list := func() []os.DirEntry {
		ents, err := os.ReadDir(workRoot)
		if err != nil {
			t.Fatal(err)
		}
		return ents
	}

	r := &ToolRunner{WorkRoot: workRoot}
	res, err := r.RunTool(failing, yamlx.NewMap(), RunOpts{})
	if err == nil {
		t.Fatal("failing tool succeeded")
	}
	if got := list(); len(got) != 0 {
		t.Errorf("generated job dir survived a failed run: %v", got)
	}
	if res != nil && res.OutDir != "" {
		if _, statErr := os.Stat(res.OutDir); statErr == nil {
			t.Errorf("OutDir %s still exists after failed run", res.OutDir)
		}
	}

	keep := &ToolRunner{WorkRoot: workRoot, KeepDirs: true}
	if _, err := keep.RunTool(failing, yamlx.NewMap(), RunOpts{}); err == nil {
		t.Fatal("failing tool succeeded")
	}
	if got := list(); len(got) != 1 {
		t.Errorf("KeepDirs did not preserve the failed job dir: %v", got)
	}

	supplied := t.TempDir()
	if _, err := r.RunTool(failing, yamlx.NewMap(), RunOpts{OutDir: supplied}); err == nil {
		t.Fatal("failing tool succeeded")
	}
	if _, err := os.Stat(supplied); err != nil {
		t.Errorf("caller-supplied OutDir was removed: %v", err)
	}

	// Success still leaves the generated directory (it holds the outputs).
	ok := mustTool(t, `
cwlVersion: v1.2
class: CommandLineTool
baseCommand: ["true"]
inputs: {}
outputs: {}
`)
	okRoot := t.TempDir()
	r2 := &ToolRunner{WorkRoot: okRoot}
	if _, err := r2.RunTool(ok, yamlx.NewMap(), RunOpts{}); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(okRoot)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Errorf("successful run's job dir missing: %v", ents)
	}
}

// TestRunToolCreatesMissingDirs checks the job-directory set-up: a missing
// WorkRoot (nested) is created on the first job and reused after, and a
// caller-supplied OutDir that does not exist yet is created.
func TestRunToolCreatesMissingDirs(t *testing.T) {
	ok := mustTool(t, `
cwlVersion: v1.2
class: CommandLineTool
baseCommand: ["true"]
inputs: {}
outputs: {}
`)
	root := filepath.Join(t.TempDir(), "a", "b")
	r := &ToolRunner{WorkRoot: root}
	for i := 0; i < 2; i++ {
		res, err := r.RunTool(ok, yamlx.NewMap(), RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Dir(res.OutDir) != root {
			t.Errorf("job dir %s not under WorkRoot %s", res.OutDir, root)
		}
	}
	if ents, err := os.ReadDir(root); err != nil || len(ents) != 2 {
		t.Errorf("WorkRoot holds %v (err %v), want 2 job dirs", ents, err)
	}

	supplied := filepath.Join(t.TempDir(), "x", "y")
	if _, err := r.RunTool(ok, yamlx.NewMap(), RunOpts{OutDir: supplied}); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(supplied); err != nil || !st.IsDir() {
		t.Errorf("caller-supplied OutDir not created: %v", err)
	}
}

// TestScatterWorkerPoolBound proves scatter fan-out is drained by a bounded
// worker pool: with ScatterWorkers=4 a 100-wide scatter never has more than
// 4 jobs in flight.
func TestScatterWorkerPoolBound(t *testing.T) {
	const width = 100
	const cap = 4
	var inFlight, peak int64
	sub := &fakeSubmitter{fn: func(_ *cwl.CommandLineTool, inputs *yamlx.Map) (*yamlx.Map, error) {
		cur := atomic.AddInt64(&inFlight, 1)
		for {
			p := atomic.LoadInt64(&peak)
			if cur <= p || atomic.CompareAndSwapInt64(&peak, p, cur) {
				break
			}
		}
		defer atomic.AddInt64(&inFlight, -1)
		return yamlx.MapOf("out", inputs.Value("x")), nil
	}}
	wf := mustWorkflow(t, `
cwlVersion: v1.2
class: Workflow
requirements:
  - class: ScatterFeatureRequirement
inputs:
  items: int[]
outputs:
  out: {type: Any, outputSource: work/out}
steps:
  work:
    run:
      class: CommandLineTool
      baseCommand: echo
      inputs:
        x: {type: int}
      outputs:
        out: {type: Any}
    in: {x: items}
    scatter: x
    out: [out]
`)
	items := make([]any, width)
	for i := range items {
		items[i] = int64(i)
	}
	eng := &WorkflowEngine{Submitter: sub, ScatterWorkers: cap}
	out, err := eng.Execute(wf, yamlx.MapOf("items", items))
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Value("out").([]any); len(got) != width {
		t.Fatalf("scatter produced %d outputs, want %d", len(got), width)
	}
	if p := atomic.LoadInt64(&peak); p > cap {
		t.Errorf("peak in-flight scatter jobs = %d, want <= %d", p, cap)
	}
}

// TestExecuteWithPrebuiltIndex verifies a shared prebuilt StepIndex produces
// identical results across repeated and concurrent executions, and that a
// mismatched index is ignored rather than trusted.
func TestExecuteWithPrebuiltIndex(t *testing.T) {
	wfSrc := `
cwlVersion: v1.2
class: Workflow
inputs:
  seed: {type: int}
outputs:
  out: {type: Any, outputSource: b/out}
steps:
  a:
    run:
      class: CommandLineTool
      baseCommand: echo
      inputs:
        x: {type: Any}
      outputs:
        out: {type: Any}
    in: {x: seed}
    out: [out]
  b:
    run:
      class: CommandLineTool
      baseCommand: echo
      inputs:
        x: {type: Any}
      outputs:
        out: {type: Any}
    in: {x: a/out}
    out: [out]
`
	wf := mustWorkflow(t, wfSrc)
	echo := func(_ *cwl.CommandLineTool, inputs *yamlx.Map) (*yamlx.Map, error) {
		return yamlx.MapOf("out", inputs.Value("x")), nil
	}
	idx := BuildStepIndex(wf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			eng := &WorkflowEngine{Submitter: &fakeSubmitter{fn: echo}, Index: idx}
			out, err := eng.Execute(wf, yamlx.MapOf("seed", int64(g)))
			if err != nil {
				t.Error(err)
				return
			}
			if out.Value("out") != int64(g) {
				t.Errorf("g=%d: out = %v", g, out.Value("out"))
			}
		}(g)
	}
	wg.Wait()

	other := mustWorkflow(t, wfSrc)
	eng := &WorkflowEngine{Submitter: &fakeSubmitter{fn: echo}, Index: BuildStepIndex(other)}
	out, err := eng.Execute(wf, yamlx.MapOf("seed", int64(7)))
	if err != nil {
		t.Fatal(err)
	}
	if out.Value("out") != int64(7) {
		t.Errorf("mismatched index: out = %v", out.Value("out"))
	}
}

// BenchmarkCloneValue tracks default-value deep-copy cost on the step-input
// path (run with -benchmem): nested maps/slices copy with preallocated
// shapes, scalars are shared.
func BenchmarkCloneValue(b *testing.B) {
	v := yamlx.MapOf(
		"class", "File",
		"path", "/data/in.csv",
		"meta", yamlx.MapOf("size", int64(12), "tags", []any{"a", "b", "c"}),
		"rows", []any{int64(1), int64(2), int64(3), int64(4)},
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = cloneValue(v)
	}
}

// TestDanglingSourceStillFails pins the indexed scheduler's unsatisfiable
// dependency diagnostics (a step whose source never materializes).
func TestDanglingSourceStillFails(t *testing.T) {
	wf := mustWorkflow(t, `
cwlVersion: v1.2
class: Workflow
inputs:
  seed: {type: int}
outputs: []
steps:
  stuck:
    run:
      class: CommandLineTool
      baseCommand: echo
      inputs:
        x: {type: Any}
      outputs:
        out: {type: Any}
    in: {x: ghost/out}
    out: [out]
`)
	eng := &WorkflowEngine{Submitter: &fakeSubmitter{fn: func(_ *cwl.CommandLineTool, inputs *yamlx.Map) (*yamlx.Map, error) {
		return yamlx.MapOf("out", inputs.Value("x")), nil
	}}}
	_, err := eng.Execute(wf, yamlx.MapOf("seed", int64(1)))
	if err == nil {
		t.Fatal("workflow with dangling source succeeded")
	}
	if want := "never became ready"; !strings.Contains(err.Error(), want) {
		t.Errorf("err = %v, want mention of %q", err, want)
	}
}
