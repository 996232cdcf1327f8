package main

import (
	"fmt"
	"sort"
	"time"
)

// outcome is everything one driven run produced.
type outcome struct {
	warm    *phaseResult
	phases  []*phaseResult        // measured phases, in order
	ledgers map[string]counters   // /metrics delta per phase
	steps   map[string][]counters // /metrics delta per step, by phase
}

// phase returns the measured phase with the given name.
func (o *outcome) phase(name string) *phaseResult {
	for _, p := range o.phases {
		if p.name == name {
			return p
		}
	}
	return nil
}

// step is one stretch of a phase: its submissions and how they are sent. A
// phase may be split into several steps, interleaved with other phases'
// steps, so that each phase samples the whole run rather than one slice of
// it.
type step struct {
	name  string
	subs  []*submission
	paced bool
}

// drive runs the warm-up and then each step, collecting every run's
// terminal snapshot and diffing /metrics around every step; the records and
// ledgers of steps sharing a name are combined into one phase. before, when
// set, runs just before a step starts (the traced run switches recording on
// there).
func drive(c *client, w *workload, warm []*submission, steps []step, before func(string)) (*outcome, error) {
	for _, s := range steps {
		if len(s.subs) >= retainRuns {
			return nil, fmt.Errorf("a %s step of %d runs would outgrow the service's %d-run retention before it is collected", s.name, len(s.subs), retainRuns)
		}
	}
	out := &outcome{ledgers: map[string]counters{}, steps: map[string][]counters{}}
	fmt.Printf("phase warmup: %d runs closed-loop\n", len(warm))
	recs := runClosed(c, warm)
	collect(c, recs, time.Now().Add(drainTimeout))
	out.warm = account("warmup", [][]*runRecord{recs})

	var names []string
	bursts := map[string][][]*runRecord{}
	for _, s := range steps {
		if before != nil {
			before(s.name)
		}
		m0, err := c.scrape()
		if err != nil {
			return nil, err
		}
		if s.paced {
			fmt.Printf("phase %s: %d runs open-loop at %.1f runs/s\n", s.name, len(s.subs), w.pacedRate)
			recs = runPaced(c, s.subs, w.pacedRate)
		} else {
			fmt.Printf("phase %s: %d runs back to back\n", s.name, len(s.subs))
			recs = runClosed(c, s.subs)
		}
		collect(c, recs, time.Now().Add(drainTimeout))
		m1, err := c.scrape()
		if err != nil {
			return nil, err
		}
		if _, seen := bursts[s.name]; !seen {
			names = append(names, s.name)
			out.ledgers[s.name] = counters{}
		}
		bursts[s.name] = append(bursts[s.name], recs)
		d := delta(m0, m1)
		out.steps[s.name] = append(out.steps[s.name], d)
		for key, v := range d {
			out.ledgers[s.name][key] += v
		}
	}
	for _, name := range names {
		out.phases = append(out.phases, account(name, bursts[name]))
	}
	return out, nil
}

// merge combines the outcomes of several servers into one, as if their
// steps had run in turn on one server: the steps of each phase and the
// warm-ups are concatenated, and the ledgers summed.
func merge(outs []*outcome) *outcome {
	m := &outcome{ledgers: map[string]counters{}, steps: map[string][]counters{}}
	var warm [][]*runRecord
	var names []string
	bursts := map[string][][]*runRecord{}
	for _, o := range outs {
		warm = append(warm, o.warm.bursts...)
		for _, p := range o.phases {
			if _, seen := bursts[p.name]; !seen {
				names = append(names, p.name)
				m.ledgers[p.name] = counters{}
			}
			bursts[p.name] = append(bursts[p.name], p.bursts...)
			m.steps[p.name] = append(m.steps[p.name], o.steps[p.name]...)
			for key, v := range o.ledgers[p.name] {
				m.ledgers[p.name][key] += v
			}
		}
	}
	m.warm = account("warmup", warm)
	for _, name := range names {
		m.phases = append(m.phases, account(name, bursts[name]))
	}
	return m
}

// audit prints the per-phase accounting and the sharing audit, records
// every check on res, and sums attempted and failed over the measured
// phases into it.
func audit(res *result, w *workload, st *stream, out *outcome) {
	for _, p := range append([]*phaseResult{out.warm}, out.phases...) {
		fmt.Printf("phase %s: attempted %d succeeded %d (executed %d, answered from cache %d) refused %d errored %d run-failed %d wrong-output %d never-terminal %d\n",
			p.name, p.attempted, p.succeeded, p.executed, p.succeeded-p.executed, p.refused, p.errored, p.runFailed, p.wrong, p.lost)
		for _, e := range p.checkErrs {
			fmt.Printf("  %s\n", e)
		}
		if p.wrong > 0 {
			res.fail("phase %s: %d runs produced wrong outputs", p.name, p.wrong)
		}
	}
	if f := out.warm.failed(); f > 0 {
		res.fail("warm-up: %d of %d runs failed", f, out.warm.attempted)
	}
	for _, p := range out.phases {
		res.attempted += p.attempted
		res.failed += p.failed()
		// The client's refusals must reconcile with the server's counters.
		l := out.ledgers[p.name]
		statusRefusals := p.refused
		for _, r := range p.recs {
			if r.status != 0 && !r.ackedOK() && r.status != 429 {
				statusRefusals++
			}
		}
		if int(l["pcwl_service_shed_total"]) != p.refused || int(l["pcwl_runs_rejected_total"]) != statusRefusals {
			res.fail("phase %s: client saw %d HTTP 429 and %d refusals, /metrics counted %.0f shed and %.0f rejected",
				p.name, p.refused, statusRefusals, l["pcwl_service_shed_total"], l["pcwl_runs_rejected_total"])
		}
	}
	fmt.Printf("failed_ratio %.6f ratio (failed %d / attempted %d, both phases)\n", ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)

	repeated, designed, measured := w.sharingAudit(st)
	fmt.Printf("sharing audit: %d of %d measured submissions repeat an earlier (document, inputs) pair, share %.4f (design %d, share %.4f)\n",
		repeated, measured, ratio(float64(repeated), float64(measured)), designed, ratio(float64(designed), float64(measured)))
	if repeated != designed {
		res.fail("sharing audit: %d repeated submissions, design says %d", repeated, designed)
	}
	var hits float64
	for _, p := range out.phases {
		hits += out.ledgers[p.name]["pcwl_resultcache_hits_total"]
	}
	if int(hits) != designed {
		res.fail("sharing audit: the result cache answered %.0f submissions, design says %d", hits, designed)
	}
}

// e2e records the end-to-end metrics of the saturate and paced phases. Each
// is the median over the phase's steps of that step's value, so a transient
// stall, or a change of the VM's speed, in a few steps does not move it
// (percentiles pooled over the whole paced phase spread up to a third more
// between runs: a slow stretch fills the pooled tail). satDeltas holds the
// /metrics delta of each saturate step.
func e2e(res *result, sat, paced *phaseResult, satDeltas []counters) {
	var runRate, taskRate []float64
	runs, tasks := 0, 0.0
	var total time.Duration
	for i, b := range sat.bursts {
		n, span := throughput(b)
		// Tool executions the workers answered during the step; every run
		// of the step was terminal before its closing scrape.
		t := satDeltas[i][tasksCounter]
		runRate = append(runRate, ratio(float64(n), span.Seconds()))
		taskRate = append(taskRate, ratio(t, span.Seconds()))
		runs, tasks, total = runs+n, tasks+t, total+span
		waits := queueWaits(b)
		fmt.Printf("  saturate step %d: %d runs over %.3f s, peak queued %d runs, queue wait p50 %.2f ms p90 %.2f ms (createdAt → startedAt, n=%d)\n",
			i+1, n, span.Seconds(), peakQueued(b), quantile(waits, 0.5), quantile(waits, 0.9), len(waits))
	}
	for i, b := range paced.bursts {
		acks, runs := ackLatencies(b), runLatencies(b)
		var execs []float64
		for _, r := range b {
			if r.ackedOK() && r.snap != nil && r.snap.Started != nil && r.snap.Finished != nil {
				execs = append(execs, ms(r.snap.Finished.Sub(*r.snap.Started)))
			}
		}
		fmt.Printf("  paced step %d: ack p50 %.3f p90 %.3f ms, run p50 %.3f p90 %.3f ms (n=%d), of which startedAt → finishedAt p50 %.3f p90 %.3f ms (n=%d)\n",
			i+1, quantile(acks, 0.5), quantile(acks, 0.9), quantile(runs, 0.5), quantile(runs, 0.9), len(runs),
			quantile(execs, 0.5), quantile(execs, 0.9), len(execs))
	}
	steps := len(sat.bursts)
	res.set("runs_per_s", median(runRate), "runs/s",
		fmt.Sprintf("(saturate: median of %d steps; %d runs over %.3f s in all)", steps, runs, total.Seconds()))
	res.set("tasks_per_s", median(taskRate), "tasks/s",
		fmt.Sprintf("(saturate: median of %d steps; %.0f tool executions [%s] over %.3f s in all)", steps, tasks, tasksCounter, total.Seconds()))
	for _, m := range []struct {
		name    string
		samples func([]*runRecord) []float64
		q       float64
	}{
		{"ack_p50_ms", ackLatencies, 0.5},
		{"ack_p90_ms", ackLatencies, 0.9},
		{"ack_p99_ms", ackLatencies, 0.99},
		{"run_p50_ms", runLatencies, 0.5},
		{"run_p90_ms", runLatencies, 0.9},
		{"run_p99_ms", runLatencies, 0.99},
	} {
		var per []float64
		n := 0
		for _, b := range paced.bursts {
			xs := m.samples(b)
			per = append(per, quantile(xs, m.q))
			n += len(xs)
		}
		v := median(per)
		basis := fmt.Sprintf("(paced: median of %d steps; n=%d)", len(paced.bursts), n)
		if m.q == 0.99 {
			// Printed for reference: too few samples per step to be steady.
			fmt.Printf("  %-34s %14.4f %-8s %s, printed only; p90 is the reported tail\n", m.name, v, "ms", basis)
			continue
		}
		res.set(m.name, v, "ms", basis)
	}
}

// tasksCounter counts tool executions answered by the workers (one per
// session round trip); memo hits and cached runs never reach it.
const tasksCounter = "pcwl_provider_remote_roundtrip_seconds_count"

// peakQueued is the most runs of recs queued at once, from their
// snapshots: admitted (createdAt) and not yet picked up (startedAt).
func peakQueued(recs []*runRecord) int {
	type edge struct {
		at time.Time
		d  int
	}
	var edges []edge
	for _, r := range recs {
		if r.ackedOK() && r.snap != nil && r.snap.Started != nil {
			edges = append(edges, edge{r.snap.Created, 1}, edge{*r.snap.Started, -1})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at.Equal(edges[j].at) {
			return edges[i].d < edges[j].d
		}
		return edges[i].at.Before(edges[j].at)
	})
	cur, peak := 0, 0
	for _, e := range edges {
		cur += e.d
		peak = max(peak, cur)
	}
	return peak
}

// ledgerEntry is one counter-derived metric with the counts behind it.
type ledgerEntry struct {
	name, unit, basis string
	value             float64
}

// ledgerEntries derives the per-layer counter metrics from one /metrics
// delta covering runs submissions.
func ledgerEntries(l counters, runs int) []ledgerEntry {
	dh, dm := l["pcwl_doccache_hits_total"], l["pcwl_doccache_misses_total"]
	rh, rm := l["pcwl_resultcache_hits_total"], l["pcwl_resultcache_misses_total"]
	app, fs := l["pcwl_wal_appends_total"], l["pcwl_wal_fsync_batches_total"]
	jb, compactions := l["pcwl_wal_journal_bytes"], l["pcwl_wal_compactions_total"]
	jbBasis := fmt.Sprintf("(journal growth %.0f B / runs %d)", jb, runs)
	if compactions > 0 {
		jbBasis += ", a compaction truncated the journal: not comparable"
	}
	memo, tasks := l["pcwl_dfk_memo_hits_total"], l["pcwl_dfk_tasks_submitted_total"]
	remote, frames := l["pcwl_provider_remote_tasks_total"], l["pcwl_provider_frames_sent_total"]
	return []ledgerEntry{
		{"service.doccache_hit_ratio", "ratio", fmt.Sprintf("(hits %.0f / lookups %.0f)", dh, dh+dm), ratio(dh, dh+dm)},
		{"service.resultcache_hit_ratio", "ratio", fmt.Sprintf("(hits %.0f / lookups %.0f)", rh, rh+rm), ratio(rh, rh+rm)},
		{"service.shed", "count", "(pcwl_service_shed_total)", l["pcwl_service_shed_total"]},
		{"service.rejected", "count", "(pcwl_runs_rejected_total)", l["pcwl_runs_rejected_total"]},
		{"persist.appends_per_run", "count", fmt.Sprintf("(appends %.0f / runs %d)", app, runs), ratio(app, float64(runs))},
		{"persist.appends_per_fsync", "count", fmt.Sprintf("(appends %.0f / fsync batches %.0f)", app, fs), ratio(app, fs)},
		{"persist.journal_bytes_per_run", "B", jbBasis, ratio(jb, float64(runs))},
		{"persist.compactions", "count", "(pcwl_wal_compactions_total; the checkpoint period is 30 s)", compactions},
		{"parsl.memo_hit_ratio", "ratio", fmt.Sprintf("(memo hits %.0f / tasks submitted %.0f)", memo, tasks), ratio(memo, tasks)},
		{"parsl.redispatched", "count", "(pcwl_htex_tasks_redispatched_total)", l["pcwl_htex_tasks_redispatched_total"]},
		{"provider.tasks_per_frame", "count", fmt.Sprintf("(remote tasks %.0f / frames sent %.0f)", remote, frames), ratio(remote, frames)},
	}
}

// printLedgers prints every measured phase's counter ledger.
func printLedgers(out *outcome) {
	for _, p := range out.phases {
		fmt.Printf("ledger %s (/metrics delta, %d runs):\n", p.name, p.attempted)
		for _, e := range ledgerEntries(out.ledgers[p.name], p.attempted) {
			fmt.Printf("  %-32s %12.4f  %s\n", e.name, e.value, e.basis)
		}
	}
}
