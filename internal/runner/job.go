package runner

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cwl"
	"repro/internal/cwlexpr"
	"repro/internal/yamlx"
)

// ExecSpec describes one concrete process invocation.
type ExecSpec struct {
	Argv     []string
	UseShell bool // run ShellCmd via "sh -c" instead of Argv directly
	ShellCmd string
	Dir      string
	Env      []string // KEY=VALUE pairs appended to the host environment
	Stdin    string   // path or ""
	Stdout   string   // path or ""
	Stderr   string   // path or ""
	// Walltime, when positive, bounds the invocation: past it the whole
	// process group is SIGKILLed and Run returns a walltime error. The
	// process group (not just the direct child) is killed so a tool that
	// forks cannot outlive its deadline.
	Walltime time.Duration
}

// ExecResult is the outcome of a process invocation.
type ExecResult struct {
	ExitCode int
}

// ExecBackend runs processes. The real backend uses os/exec; the benchmark
// harness substitutes a simulated one.
type ExecBackend interface {
	Run(spec ExecSpec) (ExecResult, error)
}

// RealBackend executes commands on the local machine.
type RealBackend struct{}

// Run implements ExecBackend.
func (RealBackend) Run(spec ExecSpec) (ExecResult, error) {
	var cmd *exec.Cmd
	if spec.UseShell {
		cmd = exec.Command("sh", "-c", spec.ShellCmd)
	} else {
		if len(spec.Argv) == 0 {
			return ExecResult{}, fmt.Errorf("empty argv")
		}
		cmd = exec.Command(spec.Argv[0], spec.Argv[1:]...)
	}
	cmd.Dir = spec.Dir
	if len(spec.Env) > 0 {
		cmd.Env = append(os.Environ(), spec.Env...)
	}
	var closers []*os.File
	defer func() {
		for _, f := range closers {
			f.Close()
		}
	}()
	if spec.Stdin != "" {
		f, err := os.Open(spec.Stdin)
		if err != nil {
			return ExecResult{}, fmt.Errorf("stdin: %w", err)
		}
		closers = append(closers, f)
		cmd.Stdin = f
	}
	open := func(path string) (*os.File, error) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, err
		}
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		closers = append(closers, f)
		return f, nil
	}
	if spec.Stdout != "" {
		f, err := open(spec.Stdout)
		if err != nil {
			return ExecResult{}, fmt.Errorf("stdout: %w", err)
		}
		cmd.Stdout = f
	}
	if spec.Stderr != "" {
		f, err := open(spec.Stderr)
		if err != nil {
			return ExecResult{}, fmt.Errorf("stderr: %w", err)
		}
		cmd.Stderr = f
	}
	var walltimed atomic.Bool
	var err error
	if spec.Walltime > 0 {
		// Walltime-bounded tools run in their own process group so the
		// deadline kill reaps the whole tree, not just the direct child.
		cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
		if err = cmd.Start(); err == nil {
			pgid := cmd.Process.Pid
			timer := time.AfterFunc(spec.Walltime, func() {
				walltimed.Store(true)
				_ = syscall.Kill(-pgid, syscall.SIGKILL)
			})
			err = cmd.Wait()
			timer.Stop()
		}
	} else {
		err = cmd.Run()
	}
	res := ExecResult{}
	if cmd.ProcessState != nil {
		res.ExitCode = cmd.ProcessState.ExitCode()
	}
	if walltimed.Load() && err != nil {
		return res, fmt.Errorf("command exceeded its %s walltime and was killed", spec.Walltime)
	}
	if err != nil {
		if _, isExit := err.(*exec.ExitError); isExit {
			return res, nil // exit code carries the signal; caller decides
		}
		return res, err
	}
	return res, nil
}

// ToolRunner executes CommandLineTools with shared CWL semantics.
type ToolRunner struct {
	// Backend runs the processes (RealBackend by default).
	Backend ExecBackend
	// WorkRoot is where per-job directories are created (temp dir if "").
	WorkRoot string
	// Cores/RAMMB describe the resource context exposed to expressions.
	Cores int
	RAMMB int
	// KeepDirs prevents job directory cleanup (useful for debugging).
	KeepDirs bool

	seq atomic.Int64
}

// ToolResult is a finished tool invocation.
type ToolResult struct {
	Outputs  *yamlx.Map
	ExitCode int
	OutDir   string
	Argv     []string
}

// RunOpts adjusts one tool invocation.
type RunOpts struct {
	// ExtraReqs are merged over the tool's own requirements (step overrides).
	ExtraReqs *cwl.Requirements
	// InputsDir resolves relative input file paths.
	InputsDir string
	// OutDir overrides the generated job directory.
	OutDir string
	// StdoutPath/StderrPath override the tool's stdout/stderr destinations
	// (the CWLApp bridge exposes them as reserved keyword arguments, like
	// Parsl bash_app's stdout=/stderr=). Relative paths resolve against the
	// job directory.
	StdoutPath string
	StderrPath string
	// Walltime bounds the tool's process execution (CWL ToolTimeLimit
	// style): past it the process group is killed and the invocation fails
	// (0 = unbounded).
	Walltime time.Duration
}

// RunTool executes one CommandLineTool invocation end to end: input
// processing, staging, command construction, execution, output collection.
func (r *ToolRunner) RunTool(tool *cwl.CommandLineTool, provided *yamlx.Map, opts RunOpts) (*ToolResult, error) {
	backend := r.Backend
	if backend == nil {
		backend = RealBackend{}
	}
	reqs := tool.Hints.Merge(tool.Requirements)
	if opts.ExtraReqs != nil {
		reqs = reqs.Merge(*opts.ExtraReqs)
	}
	eng, err := cwlexpr.SharedEngine(reqs)
	if err != nil {
		return nil, fmt.Errorf("tool %s: %w", toolName(tool), err)
	}

	inputs, err := ProcessInputs(tool.Inputs, provided, eng, opts.InputsDir)
	if err != nil {
		return nil, fmt.Errorf("tool %s: %w", toolName(tool), err)
	}

	generated := opts.OutDir == ""
	outdir := opts.OutDir
	if generated {
		root := r.WorkRoot
		if root == "" {
			root = os.TempDir()
		}
		// MkdirTemp makes the directory unique across ToolRunner instances
		// and processes: concurrent invocations (scatter siblings, separate
		// worker processes) must never share a job directory. The root
		// exists after the first job, so it is created only when missing.
		pattern := fmt.Sprintf("%s-%03d-", toolName(tool), r.seq.Add(1))
		outdir, err = os.MkdirTemp(root, pattern)
		if errors.Is(err, fs.ErrNotExist) {
			if err = os.MkdirAll(root, 0o755); err == nil {
				outdir, err = os.MkdirTemp(root, pattern)
			}
		}
		if err != nil {
			return nil, err
		}
	} else if err := os.MkdirAll(outdir, 0o755); err != nil {
		return nil, err
	}
	// On success the directory stays — the caller inspects outputs via the
	// returned File objects inside it. On failure a generated directory is
	// debris; remove it unless KeepDirs asks to keep it for debugging.
	succeeded := false
	if generated && !r.KeepDirs {
		defer func() {
			if !succeeded {
				os.RemoveAll(outdir)
			}
		}()
	}

	cores := r.Cores
	if cores <= 0 {
		cores = 1
	}
	ram := r.RAMMB
	if ram <= 0 {
		ram = 1024
	}
	runtimeCtx := RuntimeContext(outdir, outdir, cores, ram)
	ctx := cwlexpr.Context{Inputs: inputs, Runtime: runtimeCtx}

	// loadContents on File inputs.
	for _, in := range tool.Inputs {
		if in.Binding != nil && in.Binding.LoadContents {
			if f, ok := inputs.Value(in.ID).(*yamlx.Map); ok && f.GetString("class") == "File" {
				if err := LoadFileContents(f); err != nil {
					return nil, fmt.Errorf("loadContents %q: %w", in.ID, err)
				}
			}
		}
	}

	// InitialWorkDirRequirement staging.
	if reqs.WorkDir != nil {
		if err := stageWorkDir(reqs.WorkDir, eng, ctx, outdir); err != nil {
			return nil, fmt.Errorf("tool %s: InitialWorkDir: %w", toolName(tool), err)
		}
	}

	argv, parts, err := BuildCommandLine(tool, inputs, eng, runtimeCtx)
	if err != nil {
		return nil, fmt.Errorf("tool %s: %w", toolName(tool), err)
	}

	spec := ExecSpec{Argv: argv, Dir: outdir, Walltime: effectiveWalltime(opts.Walltime, reqs.TimeLimitSec)}
	if reqs.ShellCommand {
		spec.UseShell = true
		spec.ShellCmd = ShellCommand(tool, argv, parts)
	}
	for _, ev := range reqs.EnvVars {
		val := ev.Value
		if cwlexpr.NeedsEval(val) {
			s, err := eng.EvalToString(val, ctx)
			if err != nil {
				return nil, fmt.Errorf("env %s: %w", ev.Name, err)
			}
			val = s
		}
		spec.Env = append(spec.Env, ev.Name+"="+val)
	}

	stdinPath, stdoutPath, stderrPath, err := resolveStdio(tool, eng, ctx, outdir)
	if err != nil {
		return nil, err
	}
	if opts.StdoutPath != "" {
		stdoutPath = opts.StdoutPath
		if !filepath.IsAbs(stdoutPath) {
			stdoutPath = filepath.Join(outdir, stdoutPath)
		}
	}
	if opts.StderrPath != "" {
		stderrPath = opts.StderrPath
		if !filepath.IsAbs(stderrPath) {
			stderrPath = filepath.Join(outdir, stderrPath)
		}
	}
	spec.Stdin, spec.Stdout, spec.Stderr = stdinPath, stdoutPath, stderrPath

	res, err := backend.Run(spec)
	if err != nil {
		return nil, fmt.Errorf("tool %s: %w", toolName(tool), err)
	}
	if !exitOK(res.ExitCode, tool.SuccessCodes) {
		return &ToolResult{ExitCode: res.ExitCode, OutDir: outdir, Argv: argv},
			fmt.Errorf("tool %s: exit code %d (command: %s)", toolName(tool), res.ExitCode, strings.Join(argv, " "))
	}

	outputs, err := CollectOutputs(tool, eng, ctx, outdir, stdoutPath, stderrPath)
	if err != nil {
		return nil, fmt.Errorf("tool %s: %w", toolName(tool), err)
	}
	succeeded = true
	return &ToolResult{Outputs: outputs, ExitCode: res.ExitCode, OutDir: outdir, Argv: argv}, nil
}

// effectiveWalltime combines the caller's walltime bound with the document's
// ToolTimeLimit: whichever is tighter wins; 0 means unbounded on either side.
func effectiveWalltime(opt time.Duration, limitSec int64) time.Duration {
	lim := time.Duration(limitSec) * time.Second
	if lim <= 0 {
		return opt
	}
	if opt <= 0 || lim < opt {
		return lim
	}
	return opt
}

func toolName(tool *cwl.CommandLineTool) string {
	if tool.ID != "" {
		return tool.ID
	}
	if tool.Path != "" {
		base := filepath.Base(tool.Path)
		return strings.TrimSuffix(base, filepath.Ext(base))
	}
	if len(tool.BaseCommand) > 0 {
		return tool.BaseCommand[0]
	}
	return "tool"
}

func exitOK(code int, successCodes []int) bool {
	if len(successCodes) == 0 {
		return code == 0
	}
	for _, c := range successCodes {
		if c == code {
			return true
		}
	}
	return false
}

func resolveStdio(tool *cwl.CommandLineTool, eng *cwlexpr.Engine, ctx cwlexpr.Context, outdir string) (stdin, stdout, stderr string, err error) {
	resolve := func(s string) (string, error) {
		if s == "" {
			return "", nil
		}
		if cwlexpr.NeedsEval(s) {
			return eng.EvalToString(s, ctx)
		}
		return s, nil
	}
	if stdin, err = resolve(tool.Stdin); err != nil {
		return
	}
	if stdin != "" && !filepath.IsAbs(stdin) {
		stdin = filepath.Join(outdir, stdin)
	}
	if stdout, err = resolve(tool.Stdout); err != nil {
		return
	}
	if stderr, err = resolve(tool.Stderr); err != nil {
		return
	}
	// Outputs typed stdout/stderr force capture even without a filename.
	for _, out := range tool.Outputs {
		if out.Type == nil {
			continue
		}
		if out.Type.Name == "stdout" && stdout == "" {
			stdout = out.ID + ".stdout.txt"
		}
		if out.Type.Name == "stderr" && stderr == "" {
			stderr = out.ID + ".stderr.txt"
		}
	}
	if stdout != "" && !filepath.IsAbs(stdout) {
		stdout = filepath.Join(outdir, stdout)
	}
	if stderr != "" && !filepath.IsAbs(stderr) {
		stderr = filepath.Join(outdir, stderr)
	}
	return
}

func stageWorkDir(wd *cwl.InitialWorkDir, eng *cwlexpr.Engine, ctx cwlexpr.Context, outdir string) error {
	for i, ent := range wd.Listing {
		name := ent.EntryName
		if cwlexpr.NeedsEval(name) {
			s, err := eng.EvalToString(name, ctx)
			if err != nil {
				return fmt.Errorf("listing[%d] entryname: %w", i, err)
			}
			name = s
		}
		content := ent.Entry
		if cwlexpr.NeedsEval(content) {
			v, err := eng.Eval(content, ctx)
			if err != nil {
				return fmt.Errorf("listing[%d] entry: %w", i, err)
			}
			// A File object stages by copying; anything else by rendering.
			if f, ok := v.(*yamlx.Map); ok && f.GetString("class") == "File" {
				src := f.GetString("path")
				if name == "" {
					name = f.GetString("basename")
				}
				data, err := os.ReadFile(src)
				if err != nil {
					return err
				}
				if err := os.WriteFile(filepath.Join(outdir, name), data, 0o644); err != nil {
					return err
				}
				continue
			}
			content = cwlexpr.ValueToString(v)
		}
		if name == "" {
			return fmt.Errorf("listing[%d]: missing entryname", i)
		}
		if err := os.WriteFile(filepath.Join(outdir, name), []byte(content), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// CollectOutputs gathers a finished job's outputs per each output's type and
// binding.
func CollectOutputs(tool *cwl.CommandLineTool, eng *cwlexpr.Engine, ctx cwlexpr.Context, outdir, stdoutPath, stderrPath string) (*yamlx.Map, error) {
	outputs := yamlx.NewMap()
	for _, out := range tool.Outputs {
		if out.Type == nil {
			continue
		}
		switch out.Type.Name {
		case "stdout":
			outputs.Set(out.ID, MakeFileObject("File", stdoutPath))
			continue
		case "stderr":
			outputs.Set(out.ID, MakeFileObject("File", stderrPath))
			continue
		}
		if out.Binding == nil {
			outputs.Set(out.ID, nil)
			continue
		}
		var matches []any
		for _, pattern := range out.Binding.Glob {
			p := pattern
			if cwlexpr.NeedsEval(p) {
				s, err := eng.EvalToString(p, ctx)
				if err != nil {
					return nil, fmt.Errorf("output %q glob: %w", out.ID, err)
				}
				p = s
			}
			paths, err := filepath.Glob(filepath.Join(outdir, p))
			if err != nil {
				return nil, fmt.Errorf("output %q glob %q: %w", out.ID, p, err)
			}
			for _, path := range paths {
				f := MakeFileObject("File", path)
				if out.Binding.LoadContents {
					if err := LoadFileContents(f); err != nil {
						return nil, fmt.Errorf("output %q loadContents: %w", out.ID, err)
					}
				}
				matches = append(matches, f)
			}
		}
		var value any
		switch {
		case out.Binding.OutputEval != "":
			ectx := ctx
			ectx.Self = matches
			v, err := eng.Eval(out.Binding.OutputEval, ectx)
			if err != nil {
				return nil, fmt.Errorf("output %q outputEval: %w", out.ID, err)
			}
			value = v
		case out.Type.Name == "array":
			value = matches
		case len(matches) == 0:
			if !out.Type.Optional {
				return nil, fmt.Errorf("output %q: no file matched glob %v in %s", out.ID, out.Binding.Glob, outdir)
			}
			value = nil
		case len(matches) > 1:
			return nil, fmt.Errorf("output %q: glob matched %d files, want 1", out.ID, len(matches))
		default:
			value = matches[0]
		}
		outputs.Set(out.ID, value)
	}
	return outputs, nil
}
