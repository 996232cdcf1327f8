package main

import (
	"fmt"
	"os"
	"path/filepath"
)

// The untraced run measures on servers fresh servers in turn, each taking
// an equal, contiguous share of the saturate and paced submissions after
// its own warm-up. A server lives well under the service's 30 s checkpoint
// period, so no run measures a compaction in one step and another run not,
// while the run as a whole measures long enough to average the speed of
// the VM the benchmark was tuned on: it moves between regimes about a third
// apart (expr-scatter-shared saturates at ~150 or ~210 runs/s) that last
// from tens of seconds to minutes. Longer runs average that only in part:
// over ten consecutive runs, the spread of that throughput was 0.28 of its
// median with 30 s runs on two servers, and 0.12 to 0.27 with 40–45 s runs
// on three, depending on the host's load.
//
// On each server the saturate share is cut into satSteps steps and the
// paced share into at most maxPacedSteps, each paced step placed between
// two equal groups of saturate steps, so that both phases sample the whole
// run. The paced share is cut only as far as each step keeps
// minPacedSamples requests, so that a step's p90 has ten samples beyond it
// (image-pipeline's paced share, with fewer, stays one step per server).
const (
	servers         = 3
	satSteps        = 4
	maxPacedSteps   = 2
	minPacedSamples = 100
)

// layout interleaves the saturate and paced submissions of one server into
// steps.
func layout(sat, paced []*submission) []step {
	k := maxPacedSteps
	for k > 1 && (len(paced)/k < minPacedSamples || satSteps%k != 0) {
		k--
	}
	satStep := func(i int) step {
		return step{name: "saturate", subs: share(sat, i, satSteps)}
	}
	per := satSteps / k
	var steps []step
	for r := 0; r < k; r++ {
		for i := 0; i < per/2; i++ {
			steps = append(steps, satStep(r*per+i))
		}
		steps = append(steps, step{name: "paced", subs: share(paced, r, k), paced: true})
		for i := per / 2; i < per; i++ {
			steps = append(steps, satStep(r*per+i))
		}
	}
	return steps
}

// share returns part i of n equal contiguous parts of subs.
func share(subs []*submission, i, n int) []*submission {
	return subs[i*len(subs)/n : (i+1)*len(subs)/n]
}

// runUntraced measures the end-to-end metrics against parsl-cwl-serve
// subprocesses.
func runUntraced(o options) (*result, error) {
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
	fmt.Printf("perfbench %s seed %d: untraced, %d parsl-cwl-serve subprocesses in turn, %d connections\n", w.name, o.seed, servers, conns())

	res := newResult()
	var setupTimes []float64
	start := func(i int) (*server, error) {
		s, err := startServer(o.binDir, filepath.Join(o.tmpRoot, fmt.Sprintf("server-%d", i)))
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, s.setup.Seconds())
		return s, nil
	}
	// Set-up is also timed on servers that take no load.
	for i := 0; i < setups-servers; i++ {
		s, err := start(i)
		if err != nil {
			return nil, err
		}
		s.stop()
		if err := os.RemoveAll(s.dir); err != nil {
			return nil, err
		}
	}
	var outs []*outcome
	var rss []float64
	for i := 0; i < servers; i++ {
		srv, err := start(setups - servers + i)
		if err != nil {
			return nil, err
		}
		fmt.Printf("server %d of %d\n", i+1, servers)
		// Every server runs the same warm-up: the runs a repeat
		// resubmits must be in its own result cache.
		c := newClient(srv.base, tenantKeys, conns())
		out, err := drive(c, w, st.warm, layout(share(st.sat, i, servers), share(st.paced, i, servers)), nil)
		peak, rssErr := srv.peakRSSMiB()
		c.close()
		srv.stop()
		if err != nil {
			return nil, fmt.Errorf("%w (server stderr: %s)", err, srv.stderr.String())
		}
		if rssErr != nil {
			return nil, rssErr
		}
		outs = append(outs, out)
		rss = append(rss, peak)
	}
	out := merge(outs)

	audit(res, w, st, out)
	printLedgers(out)
	fmt.Println("end-to-end metrics:")
	paced := out.phase("paced")
	e2e(res, out.phase("saturate"), paced, out.steps["saturate"])
	res.set("setup_s", median(setupTimes), "s", fmt.Sprintf("(median of %d fresh servers: exec → /healthz with a connected manager)", len(setupTimes)))
	peak := 0.0
	for _, v := range rss {
		peak = max(peak, v)
	}
	res.set("peak_rss_mb", peak, "MiB", fmt.Sprintf("(server VmHWM at the end of its share, highest of %d servers: %.1f)", len(rss), rss))
	lagP99 := quantile(lags(paced.recs), 0.99)
	fmt.Printf("  loadgen.lag_p99_ms %.4f ms (paced: n=%d; bound %.0f ms)\n", lagP99, len(paced.recs), ms(maxLagP99))
	fmt.Printf("  loadgen.conn_wait_p99_ms %.4f ms (paced: due → the request holds a connection; in the latencies, no bound)\n", quantile(connWaits(paced.recs), 0.99))
	if lagP99 > ms(maxLagP99) {
		res.invalid = fmt.Sprintf("generator lag p99 %.1f ms exceeds %.0f ms", lagP99, ms(maxLagP99))
	}
	return res, nil
}
