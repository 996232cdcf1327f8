package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/parsl"
	"repro/internal/provider"
	"repro/internal/service"
	"repro/internal/tenant"
)

// span is one recorded interval.
type span struct{ start, end time.Time }

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// taskTrace is what the wrapped seams saw of one DFK task.
type taskTrace struct {
	label    string
	launched time.Time     // first StateLaunched event
	depWait  time.Duration // submitted → launched (the event's WaitDur)
	runs     []span        // ManagerHandle.Run calls, one per attempt
}

// tracer records spans in memory from the wrapped seams while on; the
// benchmark reads them after the load.
type tracer struct {
	on    atomic.Bool
	mu    sync.Mutex
	phase string
	posts map[string][]span // POST /runs handler spans, by phase
	tasks map[int]*taskTrace
}

func newTracer() *tracer {
	return &tracer{posts: map[string][]span{}, tasks: map[int]*taskTrace{}}
}

func (t *tracer) setPhase(name string, on bool) {
	t.mu.Lock()
	t.phase = name
	t.mu.Unlock()
	t.on.Store(on)
}

// handler wraps the service's HTTP handler, timing POST /runs.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || r.Method != http.MethodPost || r.URL.Path != "/runs" {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		t.mu.Lock()
		t.posts[t.phase] = append(t.posts[t.phase], span{start, end})
		t.mu.Unlock()
	})
}

func (t *tracer) task(id int) *taskTrace {
	tt := t.tasks[id]
	if tt == nil {
		tt = &taskTrace{}
		t.tasks[id] = tt
	}
	return tt
}

// onTaskEvent is the DFK task-event hook.
func (t *tracer) onTaskEvent(ev parsl.TaskEvent) {
	if !t.on.Load() || ev.State != parsl.StateLaunched {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tt := t.task(ev.TaskID)
	if tt.launched.IsZero() {
		tt.label, tt.launched, tt.depWait = ev.Label, ev.Time, ev.WaitDur
	}
}

// tracedProvider wraps the HTEX's execution provider so every manager
// handle it launches records its Run calls.
type tracedProvider struct {
	provider.ExecutionProvider
	t *tracer
}

func (p *tracedProvider) Launch(block int) (provider.ManagerHandle, error) {
	h, err := p.ExecutionProvider.Launch(block)
	if err != nil {
		return nil, err
	}
	return &tracedHandle{ManagerHandle: h, t: p.t}, nil
}

// RemoteCapable forwards the wrapped provider's answer, so tasks still ship
// to the out-of-process worker.
func (p *tracedProvider) RemoteCapable() bool {
	rc, ok := p.ExecutionProvider.(provider.RemoteCapable)
	return ok && rc.RemoteCapable()
}

type tracedHandle struct {
	provider.ManagerHandle
	t *tracer
}

func (h *tracedHandle) Run(task *provider.Task) (any, error) {
	if !h.t.on.Load() {
		return h.ManagerHandle.Run(task)
	}
	start := time.Now()
	res, err := h.ManagerHandle.Run(task)
	end := time.Now()
	h.t.mu.Lock()
	tt := h.t.task(task.ID)
	tt.runs = append(tt.runs, span{start, end})
	h.t.mu.Unlock()
	return res, err
}

// stack is the in-process service: the same deployment shape parsl-cwl-serve
// builds from its flags, with the public seams wrapped by the tracer.
type stack struct {
	dfk    *parsl.DFK
	svc    *service.Service
	srv    *http.Server
	base   string
	remove func()
}

func buildStack(o options, dir string, t *tracer) (*stack, error) {
	var tenants []tenant.Tenant
	for i := range tenantNames {
		tenants = append(tenants, tenant.Tenant{Name: tenantNames[i], Key: tenantKeys[i], Weight: tenantWts[i]})
	}
	reg, err := tenant.NewRegistry(tenants...)
	if err != nil {
		return nil, err
	}
	spec := parsl.DefaultConfigSpec()
	spec.Executor, spec.Provider = "htex", "process"
	spec.WorkerCmd = filepath.Join(o.binDir, "parsl-cwl-worker")
	spec.WorkersPerNode, spec.Nodes = workersPerNode, 1
	spec.Memoize = true // as serve forces with -data-dir
	prov, err := spec.BuildProvider(spec.Provider)
	if err != nil {
		return nil, err
	}
	htex := parsl.NewHighThroughputExecutor(parsl.HTEXConfig{
		Label:           "htex",
		Provider:        &tracedProvider{ExecutionProvider: prov, t: t},
		MaxBlocks:       spec.Nodes,
		MinBlocks:       spec.MinBlocks,
		InitBlocks:      spec.InitBlocks,
		WorkersPerNode:  spec.WorkersPerNode,
		Prefetch:        spec.Prefetch,
		IdleTimeout:     spec.IdleTimeout,
		HeartbeatPeriod: spec.HeartbeatPeriod,
		MaxRedispatch:   spec.MaxRedispatch,
	})
	dfk, err := parsl.Load(parsl.Config{Executors: []parsl.Executor{htex}, Retries: spec.Retries, Memoize: spec.Memoize})
	if err != nil {
		return nil, err
	}
	svc, err := service.New(dfk, service.Options{
		Workers:          serviceWorkers,
		QueueDepth:       queueDepth,
		CacheSize:        128,
		WorkRoot:         filepath.Join(dir, "work"),
		DataDir:          filepath.Join(dir, "data"),
		CheckpointPeriod: 30 * time.Second,
		Tenants:          reg,
		ResultCacheSize:  resultCache,
	})
	if err != nil {
		dfk.Cleanup()
		return nil, err
	}
	s := &stack{dfk: dfk, svc: svc, remove: dfk.OnTaskEvent(t.onTaskEvent)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: t.handler(svc.Handler()), ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
	go func() { _ = s.srv.Serve(ln) }()
	probe := newClient(s.base, tenantKeys, 1)
	defer probe.close()
	if err := waitHealthy(probe, time.Now().Add(60*time.Second)); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 45*time.Second)
	defer cancel()
	if s.srv != nil {
		_ = s.srv.Shutdown(ctx)
	}
	_ = s.svc.Close(ctx)
	s.remove()
	_ = s.dfk.Cleanup()
}

// The traced run's saturate phase is cut into quarters run untraced,
// traced, traced, untraced (ABBA), each on its own stack, so a drift across
// the phase cancels out of the tracing-overhead ratio.
var saturateQuarters = []struct {
	name   string
	traced bool
}{
	{"saturate-untraced-1", false},
	{"saturate-traced-1", true},
	{"saturate-traced-2", true},
	{"saturate-untraced-2", false},
}

// runTraced measures the per-layer metrics against the in-process stack.
func runTraced(o options) (*result, error) {
	w := o.workload
	nSat, nPaced := phaseSizes(w, o.seconds)
	inputDir := filepath.Join(o.tmpRoot, "inputs")
	if err := os.MkdirAll(inputDir, 0o755); err != nil {
		return nil, err
	}
	st, err := w.generate(o.seed, inputDir, nSat, nPaced)
	if err != nil {
		return nil, err
	}
	// imgtool must resolve on PATH for the worker and the direct probes.
	if err := os.Setenv("PATH", o.binDir+string(os.PathListSeparator)+os.Getenv("PATH")); err != nil {
		return nil, err
	}
	if err := os.Setenv("TMPDIR", o.tmpRoot); err != nil {
		return nil, err
	}
	fmt.Printf("perfbench %s seed %d: traced, %d in-process stacks in turn, %d connections\n", w.name, o.seed, len(saturateQuarters), conns())

	// As in the untraced run, the load is shared between fresh stacks in
	// turn, so that none lives past the checkpoint period: one stack per
	// saturate quarter, each also taking its share of the paced phase,
	// which is traced.
	tracedPhase := map[string]bool{"paced": true}
	for _, q := range saturateQuarters {
		tracedPhase[q.name] = q.traced
	}
	stacks := len(saturateQuarters)
	var parts []tracePart
	for i, q := range saturateQuarters {
		t := newTracer()
		stk, err := buildStack(o, filepath.Join(o.tmpRoot, fmt.Sprintf("stack-%d", i)), t)
		if err != nil {
			return nil, err
		}
		fmt.Printf("stack %d of %d\n", i+1, stacks)
		steps := []step{
			{name: q.name, subs: share(st.sat, i, stacks)},
			{name: "paced", subs: share(st.paced, i, stacks), paced: true},
		}
		c := newClient(stk.base, tenantKeys, conns())
		out, err := drive(c, w, st.warm, steps, func(name string) { t.setPhase(name, tracedPhase[name]) })
		t.setPhase("", false)
		c.close()
		stk.close()
		if err != nil {
			return nil, err
		}
		parts = append(parts, tracePart{t: t, out: out})
	}
	var outs []*outcome
	for _, p := range parts {
		outs = append(outs, p.out)
	}
	out := merge(outs)

	res := newResult()
	audit(res, w, st, out)
	printLedgers(out)
	fmt.Println("per-layer metrics:")
	traced := counters{}
	runs := 0
	for _, p := range out.phases {
		if !tracedPhase[p.name] {
			continue
		}
		for k, v := range out.ledgers[p.name] {
			traced[k] += v
		}
		runs += p.attempted
	}
	for _, e := range ledgerEntries(traced, runs) {
		res.set(e.name, e.value, e.unit, "traced phases "+e.basis)
	}
	paced := out.phase("paced")
	layerSpans(res, parts, tracedPhase)
	if err := layerProbes(res, o, st); err != nil {
		return nil, err
	}
	lagP99 := quantile(lags(paced.recs), 0.99)
	res.set("loadgen.lag_p99_ms", lagP99, "ms", fmt.Sprintf("(paced: n=%d; bound %.0f ms)", len(paced.recs), ms(maxLagP99)))
	fmt.Printf("  loadgen.conn_wait_p99_ms %.4f ms (paced: due → the request holds a connection; in the latencies, no bound)\n", quantile(connWaits(paced.recs), 0.99))
	if lagP99 > ms(maxLagP99) {
		res.invalid = fmt.Sprintf("generator lag p99 %.1f ms exceeds %.0f ms", lagP99, ms(maxLagP99))
	}
	// Throughput of each side: completed runs over the sum of its quarters'
	// spans.
	var rate [2]struct {
		runs int
		span time.Duration
	}
	for _, q := range saturateQuarters {
		n, span := throughput(out.phase(q.name).recs)
		side := 0
		if q.traced {
			side = 1
		}
		rate[side].runs += n
		rate[side].span += span
	}
	uRate := ratio(float64(rate[0].runs), rate[0].span.Seconds())
	tRate := ratio(float64(rate[1].runs), rate[1].span.Seconds())
	res.set("obs.trace_overhead_ratio", ratio(uRate, tRate), "ratio",
		fmt.Sprintf("(untraced %.2f runs/s [%d runs] / traced %.2f runs/s [%d runs], saturate quarters in ABBA order)", uRate, rate[0].runs, tRate, rate[1].runs))
	return res, nil
}

// tracePart is what one stack of the traced run recorded: its tracer and
// its outcome. Task IDs and run IDs restart on every stack, so the spans of
// each are matched within it.
type tracePart struct {
	t   *tracer
	out *outcome
}

// layerSpans derives the span-based per-layer metrics, pooling the samples
// of every stack. tracedPhase names the phases recorded with tracing on.
func layerSpans(res *result, parts []tracePart, tracedPhase map[string]bool) {
	var posts, waits, depWait, slotWait, roundtrip, self []float64
	for _, p := range parts {
		p.t.mu.Lock()
		for _, s := range p.t.posts["paced"] {
			posts = append(posts, float64(s.dur().Microseconds()))
		}
		waits = append(waits, queueWaits(p.out.phase("paced").recs)...)

		// Task spans by run: the run's self time is its [startedAt,
		// finishedAt] span minus the part its tasks' Run spans cover.
		byRun := map[string][]span{}
		for _, tt := range p.t.tasks {
			if tt.launched.IsZero() || len(tt.runs) == 0 {
				continue
			}
			depWait = append(depWait, float64(tt.depWait.Microseconds()))
			slotWait = append(slotWait, float64(tt.runs[0].start.Sub(tt.launched).Microseconds()))
			for _, r := range tt.runs {
				roundtrip = append(roundtrip, float64(r.dur().Microseconds()))
			}
			byRun[tt.label] = append(byRun[tt.label], tt.runs...)
		}
		p.t.mu.Unlock()
		for _, ph := range p.out.phases {
			if !tracedPhase[ph.name] {
				continue
			}
			for _, r := range ph.recs {
				s := r.snap
				if s == nil || s.State != "succeeded" || s.Started == nil || s.Finished == nil || s.ResultCached {
					continue
				}
				run := span{*s.Started, *s.Finished}
				self = append(self, ms(run.dur()-covered(run, byRun[s.ID])))
			}
		}
	}
	res.set("service.post_us", median(posts), "us", fmt.Sprintf("(paced POST /runs handler spans: n=%d)", len(posts)))
	res.set("service.queue_wait_p50_ms", quantile(waits, 0.5), "ms", fmt.Sprintf("(paced createdAt → startedAt: n=%d)", len(waits)))
	res.set("service.queue_wait_p99_ms", quantile(waits, 0.99), "ms", fmt.Sprintf("(paced createdAt → startedAt: n=%d)", len(waits)))
	res.set("runner.self_ms", median(self), "ms", fmt.Sprintf("(executed runs: run span minus its task spans, n=%d)", len(self)))
	res.set("parsl.dep_wait_us", median(depWait), "us", fmt.Sprintf("(DFK task events submitted → launched: n=%d)", len(depWait)))
	res.set("parsl.slot_wait_us", median(slotWait), "us", fmt.Sprintf("(launched → ManagerHandle.Run start: n=%d)", len(slotWait)))
	res.set("provider.roundtrip_us", median(roundtrip), "us", fmt.Sprintf("(ManagerHandle.Run spans over the process provider: n=%d)", len(roundtrip)))
}

// covered returns how much of run the spans cover (their union, clipped).
func covered(run span, spans []span) time.Duration {
	s := append([]span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].start.Before(s[j].start) })
	var total time.Duration
	var cur span
	open := false
	flush := func() {
		if !open {
			return
		}
		a, b := cur.start, cur.end
		if a.Before(run.start) {
			a = run.start
		}
		if b.After(run.end) {
			b = run.end
		}
		if b.After(a) {
			total += b.Sub(a)
		}
	}
	for _, x := range s {
		if open && !x.start.After(cur.end) {
			if x.end.After(cur.end) {
				cur.end = x.end
			}
			continue
		}
		flush()
		cur, open = x, true
	}
	flush()
	return total
}
