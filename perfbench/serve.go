package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"agenp/internal/obs"
	"agenp/internal/workload"
)

// agenpd's default coalition and the request vocabulary. The data types
// are what the data-sharing policies cover; the others no policy covers.
var (
	serveParties = []string{"party-a", "party-b", "party-c"}
	serveActions = []string{"image", "video", "sigint", "document", "audio", "telemetry", "share image"}
)

// Fixed open-loop rates (requests per second).
const (
	lightRate = 1000
	heavyRate = 4000
)

// batchShare is the share of requests that carry several action=
// parameters (decided as one engine batch).
const batchShare = 0.2

// maxLagShare invalidates a run whose generator ran late by more than
// this share of the measured median latency.
const maxLagShare = 0.5

// decideReply is agenpd's /decide response.
type decideReply struct {
	Party      string `json:"party"`
	Generation uint64 `json:"generation"`
	Results    []struct {
		Action   string `json:"action"`
		Decision string `json:"decision"`
		PolicyID string `json:"policy_id"`
		Error    string `json:"error"`
	} `json:"results"`
}

// refKey indexes the reference table.
type refKey struct{ party, action string }

type refEntry struct{ decision, policyID, err string }

// reference holds, per party and action, the answer captured at warm-up,
// and per party the generation it was served from.
type reference struct {
	answers     map[refKey]refEntry
	generations map[string]uint64
}

// decideRequest is one scheduled /decide request.
type decideRequest struct {
	party   string
	actions []string
	target  string // request target: /decide?...
}

func makeRequest(party string, actions []string) decideRequest {
	q := url.Values{"party": {party}, "action": actions}
	return decideRequest{party: party, actions: actions, target: "/decide?" + q.Encode()}
}

// serveMix draws n requests from the seeded mix: uniform parties and
// actions, batchShare of them carrying two to four actions.
func serveMix(seed uint64, n int) []decideRequest {
	rng := workload.NewRNG(seed)
	out := make([]decideRequest, n)
	for i := range out {
		party := workload.Pick(rng, serveParties)
		k := 1
		if rng.Float64() < batchShare {
			k = 2 + rng.Intn(3)
		}
		actions := make([]string, k)
		for j := range actions {
			actions[j] = workload.Pick(rng, serveActions)
		}
		out[i] = makeRequest(party, actions)
	}
	return out
}

// conn is one keep-alive HTTP/1.1 connection to agenpd.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	host string
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReader(c), host: addr}, nil
}

// get sends one GET and returns the status and body.
func (c *conn) get(target string) (int, []byte, error) {
	if _, err := fmt.Fprintf(c.c, "GET %s HTTP/1.1\r\nHost: %s\r\n\r\n", target, c.host); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

// check compares one /decide response with the reference table.
func (ref *reference) check(r decideRequest, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, strings.TrimSpace(string(body)))
	}
	var rep decideReply
	if err := json.Unmarshal(body, &rep); err != nil {
		return fmt.Errorf("malformed reply: %w", err)
	}
	if rep.Party != r.party {
		return fmt.Errorf("reply for party %q, asked %q", rep.Party, r.party)
	}
	if rep.Generation != ref.generations[r.party] {
		return fmt.Errorf("%s served generation %d, reference %d", r.party, rep.Generation, ref.generations[r.party])
	}
	if len(rep.Results) != len(r.actions) {
		return fmt.Errorf("%d results for %d actions", len(rep.Results), len(r.actions))
	}
	for i, res := range rep.Results {
		want, ok := ref.answers[refKey{r.party, r.actions[i]}]
		got := refEntry{res.Decision, res.PolicyID, res.Error}
		if res.Action != r.actions[i] || !ok || got != want {
			return fmt.Errorf("%s/%q: got %+v, reference %+v", r.party, r.actions[i], got, want)
		}
	}
	return nil
}

// captureReference asks agenpd once for every party and action.
func captureReference(addr string) (*reference, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.c.Close()
	ref := &reference{answers: map[refKey]refEntry{}, generations: map[string]uint64{}}
	for _, party := range serveParties {
		for _, action := range serveActions {
			status, body, err := c.get(makeRequest(party, []string{action}).target)
			if err != nil {
				return nil, err
			}
			if status != http.StatusOK {
				return nil, fmt.Errorf("warm-up %s/%q: status %d", party, action, status)
			}
			var rep decideReply
			if err := json.Unmarshal(body, &rep); err != nil || len(rep.Results) != 1 {
				return nil, fmt.Errorf("warm-up %s/%q: malformed reply %q", party, action, body)
			}
			if g, ok := ref.generations[party]; ok && g != rep.Generation {
				return nil, fmt.Errorf("warm-up: %s moved from generation %d to %d", party, g, rep.Generation)
			}
			ref.generations[party] = rep.Generation
			res := rep.Results[0]
			ref.answers[refKey{party, action}] = refEntry{res.Decision, res.PolicyID, res.Error}
		}
	}
	return ref, nil
}

// phaseResult is one open-loop phase.
type phaseResult struct {
	sent, failed, wrong int
	latency, rtt, lag   []float64 // us; latency counts from the due time
}

// setTimerSlack sets the calling thread's timer slack (PR_SET_TIMERSLACK;
// 0 restores the default). A 1 ns slack lets nanosleep wake within
// microseconds of the due time instead of the default 50 us later.
func setTimerSlack(ns uintptr) {
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, 29, ns, 0)
}

// sleepUntil blocks the calling thread until t. Go's runtime timers
// wake up to a millisecond late, which is more than the round trip
// being measured, so the generator sleeps in nanosleep instead.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// openLoop sends reqs at rate on conns keep-alive connections. Request
// i is due at start + i/rate and goes out on connection i mod conns, so
// a slow reply delays only its own connection's later requests, and
// that delay is counted: latency runs from the due time.
func openLoop(ctx context.Context, addr string, reqs []decideRequest, rate float64, conns int, ref *reference, log func(string, ...any)) (phaseResult, error) {
	cs := make([]*conn, conns)
	for i := range cs {
		c, err := dial(addr)
		if err != nil {
			return phaseResult{}, err
		}
		defer c.c.Close()
		cs[i] = c
	}
	// Cancellation closes the connections, which unblocks any request
	// waiting on a reply.
	defer context.AfterFunc(ctx, func() {
		for _, c := range cs {
			c.c.Close()
		}
	})()
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(5 * time.Millisecond)
	results := make([]phaseResult, conns)
	var wg sync.WaitGroup
	for w := range cs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// The thread sleeps in nanosleep with a fine slack; unlock
			// (and restore the slack) before returning so the thread is
			// kept, not destroyed: agenpd's death signal is tied to the
			// thread that started it.
			runtime.LockOSThread()
			setTimerSlack(1)
			defer func() {
				setTimerSlack(0)
				runtime.UnlockOSThread()
			}()
			c, res := cs[w], &results[w]
			for i := w; i < len(reqs); i += conns {
				if ctx.Err() != nil {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				sleepUntil(due)
				sent := time.Now()
				status, body, err := c.get(reqs[i].target)
				done := time.Now()
				res.sent++
				if err != nil {
					res.failed++
					log("request %s: %v", reqs[i].target, err)
					return
				}
				if err := ref.check(reqs[i], status, body); err != nil {
					res.failed++
					res.wrong++
					log("request %s: %v", reqs[i].target, err)
					continue
				}
				res.latency = append(res.latency, us(done.Sub(due)))
				res.rtt = append(res.rtt, us(done.Sub(sent)))
				res.lag = append(res.lag, us(sent.Sub(due)))
			}
		}(w)
	}
	wg.Wait()
	var all phaseResult
	for _, r := range results {
		all.sent += r.sent
		all.failed += r.failed
		all.wrong += r.wrong
		all.latency = append(all.latency, r.latency...)
		all.rtt = append(all.rtt, r.rtt...)
		all.lag = append(all.lag, r.lag...)
	}
	// A connection that broke stopped early: its unsent requests failed.
	all.failed += len(reqs) - all.sent
	all.sent = len(reqs)
	return all, ctx.Err()
}

// closedClient is the closed loop: one keep-alive connection whose
// requests go back to back. It runs in slices that alternate with the
// Enforce phase's, so both sample the whole run. The client thread and
// agenpd share one CPU, so a round trip waits for no cross-CPU wake-up.
type closedClient struct {
	c    *conn
	pid  int // agenpd, whose CPU the loop accounts
	reqs []decideRequest
	ref  *reference
	log  func(string, ...any)
	next int
	res  phaseResult
	cpu  time.Duration // agenpd CPU used during the loop
}

func newClosedClient(addr string, pid int, reqs []decideRequest, ref *reference, log func(string, ...any)) (*closedClient, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	return &closedClient{c: c, pid: pid, reqs: reqs, ref: ref, log: log}, nil
}

// run sends requests until the budget is spent.
func (cl *closedClient) run(ctx context.Context, budget time.Duration) error {
	defer context.AfterFunc(ctx, func() { cl.c.c.Close() })()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	defer pinThread()()
	cpu0, err := processCPU(cl.pid)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for ctx.Err() == nil && time.Since(t0) < budget {
		r := cl.reqs[cl.next%len(cl.reqs)]
		cl.next++
		sent := time.Now()
		status, body, err := cl.c.get(r.target)
		done := time.Now()
		cl.res.sent++
		if err != nil {
			cl.res.failed++
			return fmt.Errorf("request %s: %w", r.target, err)
		}
		if err := cl.ref.check(r, status, body); err != nil {
			cl.res.failed++
			cl.res.wrong++
			cl.log("request %s: %v", r.target, err)
			continue
		}
		cl.res.rtt = append(cl.res.rtt, us(done.Sub(sent)))
	}
	cpu1, err := processCPU(cl.pid)
	if err != nil {
		return err
	}
	cl.cpu += cpu1 - cpu0
	return ctx.Err()
}

// scrape fetches agenpd's /metrics registry snapshot.
func scrape(addr string) (obs.Snapshot, error) {
	var s obs.Snapshot
	c, err := dial(addr)
	if err != nil {
		return s, err
	}
	defer c.c.Close()
	status, body, err := c.get("/metrics")
	if err != nil {
		return s, err
	}
	if status != http.StatusOK {
		return s, fmt.Errorf("/metrics status %d", status)
	}
	return s, json.Unmarshal(body, &s)
}

// handlerUs is the mean agenpd /decide handler time between two scrapes.
func handlerUs(a, b obs.Snapshot) float64 {
	ha, hb := a.Histograms["agenpd.decide.duration"], b.Histograms["agenpd.decide.duration"]
	return ratio(float64(hb.SumNs-ha.SumNs)/1e3, float64(hb.Count-ha.Count))
}

// Shares of the run's seconds spent in each phase.
const (
	closedShare  = 0.4
	lightShare   = 0.1
	heavyShare   = 0.1
	enforceShare = 0.4
)

// serveSlice is the length of one closed-loop slice plus the Enforce
// slice that follows it.
const serveSlice = 2 * time.Second

func seconds(f float64) time.Duration { return time.Duration(f * float64(time.Second)) }

func runServe(ctx context.Context, cfg config) (res *result, err error) {
	bin, dir, err := buildAgenpd(ctx, cfg.root)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Set-up: start agenpd five times, keep the last, report the median
	// start-to-ready time.
	var d *daemon
	defer func() {
		if d != nil {
			if serr := d.stop(); serr != nil && err == nil {
				res, err = nil, serr
			}
		}
	}()
	var setups []float64
	for i := 0; i < 5; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if d, err = startDaemon(ctx, bin); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		cfg.logf("agenpd pid %d ready on %s", d.pgid, d.addr)
	}
	ref, err := captureReference(d.addr)
	if err != nil {
		return nil, err
	}

	budget := cfg.seconds
	if cfg.trace {
		// The traced run splits its time between the same phases and
		// the per-layer breakdown of the in-process path.
		budget /= 2
	}
	lightN := int(budget * lightShare * lightRate)
	heavyN := int(budget * heavyShare * heavyRate)
	conns := runtime.NumCPU()
	// Warm the connections and agenpd's handler path.
	warm, err := openLoop(ctx, d.addr, serveMix(mix(cfg.seed, 0), 200), lightRate, conns, ref, cfg.logf)
	if err != nil {
		return nil, err
	}

	// Closed loop and in-process Enforce, in alternating slices.
	cl, err := newClosedClient(d.addr, d.pgid, serveMix(mix(cfg.seed, 1), 4096), ref, cfg.logf)
	if err != nil {
		return nil, err
	}
	defer cl.c.c.Close()
	enf, err := newEnforcer(cfg)
	if err != nil {
		return nil, err
	}
	s0, err := scrape(d.addr)
	if err != nil {
		return nil, err
	}
	pairs := max(1, int(budget*(closedShare+enforceShare)/serveSlice.Seconds()))
	for i := 0; i < pairs; i++ {
		if err := cl.run(ctx, seconds(budget*closedShare/float64(pairs))); err != nil {
			return nil, err
		}
		enf.run(ctx, seconds(budget*enforceShare/float64(pairs)))
	}
	s1, err := scrape(d.addr)
	if err != nil {
		return nil, err
	}
	closed := cl.res

	// Open loop at the two fixed rates.
	light, err := openLoop(ctx, d.addr, serveMix(mix(cfg.seed, 2), lightN), lightRate, conns, ref, cfg.logf)
	if err != nil {
		return nil, err
	}
	cpu2, err := processCPU(d.pgid)
	if err != nil {
		return nil, err
	}
	heavy, err := openLoop(ctx, d.addr, serveMix(mix(cfg.seed, 3), heavyN), heavyRate, conns, ref, cfg.logf)
	if err != nil {
		return nil, err
	}
	cpu3, err := processCPU(d.pgid)
	if err != nil {
		return nil, err
	}
	err = d.stop()
	d = nil
	if err != nil {
		return nil, err
	}

	res = &result{}
	for _, ph := range []phaseResult{warm, closed, light, heavy} {
		res.attempted += ph.sent
		res.failed += ph.failed
		res.wrong += ph.wrong
	}
	res.attempted += enf.r.calls
	res.failed += enf.r.failed
	res.wrong += enf.r.wrong
	closedP50 := quantile(closed.rtt, 0.5)
	closedCPU := ratio(us(cl.cpu), float64(closed.sent))
	enforceNs, fastestEnforce := enf.r.nsPerCall(), enf.r.fastestNsPerCall()
	lightP50 := quantile(light.latency, 0.5)
	lagP50, lagP99 := quantile(light.lag, 0.5), quantile(light.lag, 0.99)
	res.note("serve.closed_p50_us", closedP50, "us")
	res.note("serve.closed_p99_us", quantile(closed.rtt, 0.99), "us")
	res.note("serve.closed_cpu_us_per_req", closedCPU, "us")
	res.note("serve.light_p50_us", lightP50, "us")
	res.note("serve.light_p99_us", quantile(light.latency, 0.99), "us")
	res.note("serve.heavy_p99_us", quantile(heavy.latency, 0.99), "us")
	res.note("serve.cpu_us_per_req", ratio(us(cpu3-cpu2), float64(heavy.sent)), "us")
	res.note("serve.enforce_ns", enforceNs, "ns")
	res.note("serve.enforce_fastest_ns", fastestEnforce, "ns")
	res.note("serve.enforce_blocks", float64(len(enf.r.blocks)), "count")
	res.note("serve.generator_lag_p50_us", lagP50, "us")
	res.note("serve.generator_lag_p99_us", lagP99, "us")
	res.note("serve.heavy_generator_lag_p99_us", quantile(heavy.lag, 0.99), "us")
	res.note("serve.requests", float64(closed.sent+light.sent+heavy.sent), "count")
	if lagP50 > maxLagShare*lightP50 {
		res.invalid = fmt.Sprintf("generator lag p50 %.1f us is over %.0f%% of the %.1f us median latency", lagP50, maxLagShare*100, lightP50)
	}
	if !cfg.trace {
		res.e2e = map[string]float64{
			"p50_us":        closedP50,
			"cpu_us_per_op": closedCPU,
			"ops_per_s":     ratio(1e9, fastestEnforce),
			"setup_s":       median(setups),
		}
		return res, nil
	}

	layers := zeroLayers()
	handler := handlerUs(s0, s1)
	layers["agenpd.handler_us"] = handler
	layers["serve.transport_us"] = mean(closed.rtt) - handler
	layers["serve.generator_lag_p99_us"] = lagP99
	layers["engine.decisions_per_request"] = ratio(
		float64(s1.Counters["engine.decisions"]-s0.Counters["engine.decisions"]),
		float64(s1.Counters["agenpd.decide.requests"]-s0.Counters["agenpd.decide.requests"]))
	tr := newTracer()
	lay, err := runEnforceLayers(ctx, cfg, seconds(budget*enforceShare), tr)
	if err != nil {
		return nil, err
	}
	res.attempted += lay.calls
	res.failed += lay.failed
	res.wrong += lay.wrong
	for k, v := range lay.layers {
		layers[k] = v
	}
	// Enforce renders the context key twice: PIP acquisition and the
	// monitor log record.
	layers["serve.enforce_unattributed_ns"] = enforceNs - layers["engine.decide_ns"] - 2*layers["agenp.context_key_ns"]
	layers["trace.overhead_ratio"] = ratio(lay.tracedNsPerCall, enforceNs) - 1
	res.layer = layers
	res.note("serve.closed_mean_us", mean(closed.rtt), "us")
	res.note("serve.closed_mean_sum_of_layers_us", handler+layers["serve.transport_us"], "us")
	res.note("serve.enforce_sum_of_layers_ns", layers["engine.decide_ns"]+2*layers["agenp.context_key_ns"]+layers["serve.enforce_unattributed_ns"], "ns")
	if path, err := tr.write(cfg.root, cfg.workload, cfg.seed); err != nil {
		cfg.logf("writing spans: %v", err)
	} else {
		cfg.logf("spans written to %s", path)
	}
	return res, nil
}
