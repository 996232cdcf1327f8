package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// client drives one server over HTTP with at most maxConns connections.
type client struct {
	base string
	keys [2]string
	hc   *http.Client
}

func newClient(base string, keys [2]string, maxConns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}
	return &client{base: base, keys: keys, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// snapshot is the subset of a run snapshot the benchmark reads.
type snapshot struct {
	ID           string         `json:"id"`
	State        string         `json:"state"`
	Created      time.Time      `json:"createdAt"`
	Started      *time.Time     `json:"startedAt"`
	Finished     *time.Time     `json:"finishedAt"`
	Outputs      map[string]any `json:"outputs"`
	Error        string         `json:"error"`
	ResultCached bool           `json:"resultCached"`
}

func (s *snapshot) terminal() bool {
	switch s.State {
	case "succeeded", "failed", "canceled":
		return true
	}
	return false
}

// runRecord is one attempted submission and what became of it.
type runRecord struct {
	sub *submission
	due time.Time // when the request was due (wall clock)
	// lag is how late the generator sent the request: due → its goroutine
	// started. connWait runs on to when the request held a connection; the
	// difference is the wait for earlier requests, still unanswered, to free
	// one of the nproc connections, which the latencies count from due.
	lag, connWait time.Duration
	acked         time.Time
	// status is the POST response status; 0 means a transport error.
	status int
	err    error
	snap   *snapshot // terminal snapshot, once seen
	lost   bool      // acknowledged but never seen terminal (e.g. evicted)
	// checked is set once the outputs of a succeeded run were checked
	// against the reference; wrong is the check's error.
	checked bool
	wrong   error
}

func (r *runRecord) ackedOK() bool { return r.status == http.StatusCreated }

func (c *client) do(ctx context.Context, method, path string, tenant int, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if tenant >= 0 {
		req.Header.Set("Authorization", "Bearer "+c.keys[tenant])
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// submit POSTs one run and records the acknowledgement, and when the
// request got one of the client's connections.
func (c *client) submit(r *runRecord) {
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { r.connWait = time.Since(r.due) },
	})
	status, data, err := c.do(ctx, http.MethodPost, "/runs", r.sub.tenant, r.sub.body)
	r.acked = time.Now()
	r.status, r.err = status, err
	if err != nil || status != http.StatusCreated {
		if err == nil {
			r.err = fmt.Errorf("POST /runs: %d %s", status, strings.TrimSpace(string(data)))
		}
		return
	}
	var s snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		r.status, r.err = 0, fmt.Errorf("POST /runs: decoding snapshot: %w", err)
		return
	}
	if s.terminal() {
		r.snap = &s // answered at admission (shared result cache)
		return
	}
	r.snap = &snapshot{ID: s.ID} // placeholder: id only, not terminal
}

// retainRuns is the service's default run-store retention: past it the
// oldest terminal runs are evicted, and serve has no flag to change it.
const retainRuns = 4096

// collect fetches the terminal snapshot of every acknowledged run of a step
// with GET /runs/{id}?wait=1, spread over all the client's connections.
// It runs after the step's last submission, so no snapshot fetch shares a
// connection with a measured POST. A step is smaller than the store's
// retention (see drive), so none of its runs is evicted before this sees
// it; a run still not terminal at the deadline, or gone (404), is lost.
func collect(c *client, recs []*runRecord, deadline time.Time) {
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(recs) {
					return
				}
				r := recs[i]
				if !r.ackedOK() || r.snap.terminal() {
					continue
				}
				status, data, err := c.do(ctx, http.MethodGet, "/runs/"+r.snap.ID+"?wait=1", r.sub.tenant, nil)
				var s snapshot
				if err != nil || status != http.StatusOK || json.Unmarshal(data, &s) != nil || !s.terminal() {
					r.lost = true
					continue
				}
				r.snap = &s
			}
		}()
	}
	wg.Wait()
}

// runClosed submits subs back to back from one goroutine per connection and
// returns the records in submission order.
func runClosed(c *client, subs []*submission) []*runRecord {
	recs := make([]*runRecord, len(subs))
	for i, s := range subs {
		recs[i] = &runRecord{sub: s}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(recs) {
					return
				}
				r := recs[i]
				r.due = time.Now()
				c.submit(r)
			}
		}()
	}
	wg.Wait()
	return recs
}

// runPaced is the open loop: submission i is due at start + i/rate, sent on
// its own goroutine at that time whatever the state of earlier ones.
func runPaced(c *client, subs []*submission, rate float64) []*runRecord {
	recs := make([]*runRecord, len(subs))
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for i, s := range subs {
		r := &runRecord{sub: s, due: start.Add(time.Duration(i) * interval)}
		recs[i] = r
		if d := time.Until(r.due); d > 0 {
			time.Sleep(d)
		}
		r.lag = time.Since(r.due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.submit(r)
		}()
	}
	wg.Wait()
	return recs
}

// phaseResult summarizes one phase's records.
type phaseResult struct {
	name      string
	bursts    [][]*runRecord // the records of each of the phase's steps
	recs      []*runRecord   // all of them
	attempted int
	refused   int // 429
	errored   int // 5xx, other non-2xx and transport errors
	runFailed int // ended failed or canceled
	wrong     int // succeeded with outputs that fail the reference check
	lost      int // acknowledged, never seen terminal
	succeeded int
	executed  int // succeeded runs that executed (not answered from cache)
	checkErrs []string
}

func (p *phaseResult) failed() int { return p.refused + p.errored + p.runFailed + p.wrong + p.lost }

// account classifies every record, running the reference check on each
// succeeded run.
func account(name string, bursts [][]*runRecord) *phaseResult {
	var recs []*runRecord
	for _, b := range bursts {
		recs = append(recs, b...)
	}
	p := &phaseResult{name: name, bursts: bursts, recs: recs, attempted: len(recs)}
	var checks []func() error
	for _, r := range recs {
		if !r.checked && r.ackedOK() && !r.lost && r.snap != nil && r.snap.State == "succeeded" {
			r.checked = true
			checks = append(checks, func() error {
				r.wrong = r.sub.check(r.snap.Outputs)
				return nil
			})
		}
	}
	_ = parallel(checks)
	for _, r := range recs {
		switch {
		case r.status == http.StatusTooManyRequests:
			p.refused++
		case !r.ackedOK():
			p.errored++
		case r.lost || r.snap == nil || !r.snap.terminal():
			p.lost++
		case r.snap.State != "succeeded":
			p.runFailed++
			if len(p.checkErrs) < 5 {
				p.checkErrs = append(p.checkErrs, fmt.Sprintf("%s %s: %s", r.snap.ID, r.snap.State, r.snap.Error))
			}
		default:
			if r.wrong != nil {
				p.wrong++
				if len(p.checkErrs) < 5 {
					p.checkErrs = append(p.checkErrs, fmt.Sprintf("%s wrong output: %v", r.snap.ID, r.wrong))
				}
				continue
			}
			p.succeeded++
			if !r.snap.ResultCached {
				p.executed++
			}
		}
	}
	for _, r := range recs {
		if r.err != nil && len(p.checkErrs) < 5 {
			p.checkErrs = append(p.checkErrs, r.err.Error())
		}
	}
	return p
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ackLatencies returns due → 2xx latencies of acknowledged runs (ms).
func ackLatencies(recs []*runRecord) []float64 {
	var out []float64
	for _, r := range recs {
		if r.ackedOK() {
			out = append(out, ms(r.acked.Sub(r.due)))
		}
	}
	return out
}

// runLatencies returns due → finishedAt latencies of succeeded runs (ms).
func runLatencies(recs []*runRecord) []float64 {
	var out []float64
	for _, r := range recs {
		if r.ackedOK() && r.snap != nil && r.snap.State == "succeeded" && r.snap.Finished != nil {
			out = append(out, ms(r.snap.Finished.Sub(r.due)))
		}
	}
	return out
}

// queueWaits returns createdAt → startedAt of runs that executed (ms).
func queueWaits(recs []*runRecord) []float64 {
	var out []float64
	for _, r := range recs {
		if r.ackedOK() && r.snap != nil && r.snap.Started != nil {
			out = append(out, ms(r.snap.Started.Sub(r.snap.Created)))
		}
	}
	return out
}

func lags(recs []*runRecord) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = ms(r.lag)
	}
	return out
}

func connWaits(recs []*runRecord) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = ms(r.connWait)
	}
	return out
}

// throughput is the completed runs of one step and its span, last
// finishedAt − first due time.
func throughput(recs []*runRecord) (runs int, span time.Duration) {
	var first, last time.Time
	for _, r := range recs {
		if first.IsZero() || r.due.Before(first) {
			first = r.due
		}
		if r.ackedOK() && r.snap != nil && r.snap.State == "succeeded" && r.snap.Finished != nil {
			runs++
			if r.snap.Finished.After(last) {
				last = *r.snap.Finished
			}
		}
	}
	if runs == 0 {
		return 0, 0
	}
	return runs, last.Sub(first)
}

// counters is one /metrics scrape: every series value keyed by its name,
// summed over labels, plus "name{label=value}" for single-label series.
type counters map[string]float64

func (c *client) scrape() (counters, error) {
	status, data, err := c.do(context.Background(), http.MethodGet, "/metrics", -1, nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %d", status)
	}
	fams, err := obs.ParseExposition(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("parsing /metrics: %w", err)
	}
	out := counters{}
	for _, f := range fams {
		for _, s := range f.Series {
			out[s.Name] += s.Value
			if len(s.Labels) == 1 {
				out[fmt.Sprintf("%s{%s=%s}", s.Name, s.Labels[0].Name, s.Labels[0].Value)] += s.Value
			}
		}
	}
	return out, nil
}

// delta returns after − before for every key of after.
func delta(before, after counters) counters {
	out := counters{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// healthz reports whether the server answers /healthz with at least one
// connected HTEX manager.
func (c *client) healthz() (bool, error) {
	status, data, err := c.do(context.Background(), http.MethodGet, "/healthz", -1, nil)
	if err != nil {
		return false, err
	}
	if status != http.StatusOK {
		return false, fmt.Errorf("GET /healthz: %d", status)
	}
	var h struct {
		Stats struct {
			Executors []struct {
				ConnectedManagers int `json:"connectedManagers"`
			} `json:"executors"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(data, &h); err != nil {
		return false, err
	}
	for _, e := range h.Stats.Executors {
		if e.ConnectedManagers >= 1 {
			return true, nil
		}
	}
	return false, nil
}

// waitHealthy polls /healthz until it reports a connected manager.
func waitHealthy(c *client, deadline time.Time) error {
	var last error
	for time.Now().Before(deadline) {
		ok, err := c.healthz()
		if ok {
			return nil
		}
		last = err
		// Set-up takes a few milliseconds: poll finely enough not to
		// round it up.
		time.Sleep(200 * time.Microsecond)
	}
	if last == nil {
		last = errors.New("no connected manager")
	}
	return fmt.Errorf("server not healthy: %w", last)
}
