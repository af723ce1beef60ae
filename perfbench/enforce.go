package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"agenp/internal/agenp"
	"agenp/internal/apps/datashare"
	"agenp/internal/asp"
	"agenp/internal/core"
	"agenp/internal/engine"
	"agenp/internal/obs"
	"agenp/internal/workload"
	"agenp/internal/xacml"
)

// enforceBlock is the number of calls timed together. The gated
// throughput comes from the fastest block, the report line's
// serve.enforce_ns from the median one.
const enforceBlock = 4096

// enforceRequests is the size of the seeded request ring the in-process
// phases cycle through (a power of two).
const enforceRequests = 1024

// serveAMS is agenpd's lead party built in process: the data-sharing
// model under the lead's context, with a flight recorder recording
// every decision.
type serveAMS struct {
	ams  *agenp.AMS
	in   *agenp.TokenInterpreter
	rec  *obs.Recorder
	ctx  *asp.Program
	reqs []xacml.Request
}

func newServeAMS(seed uint64) (*serveAMS, error) {
	model, err := core.ParseGPM(datashare.GrammarSource)
	if err != nil {
		return nil, err
	}
	ctx, err := asp.Parse("trust(high). quality(5).")
	if err != nil {
		return nil, err
	}
	in := &agenp.TokenInterpreter{PermitVerbs: []string{"share"}, DenyVerbs: []string{"withhold"}}
	ams, err := agenp.New(agenp.Config{
		Name:           "party-a",
		Model:          model,
		Space:          datashare.HypothesisSpace(),
		Context:        &agenp.StaticContext{Program: ctx},
		Interpreter:    in,
		AdaptThreshold: 2,
	})
	if err != nil {
		return nil, err
	}
	rec := obs.NewRecorder(obs.RecorderOptions{LatencySLO: time.Millisecond})
	ams.AttachRecorder(rec)
	if _, _, err := ams.Regenerate(); err != nil {
		return nil, err
	}
	rng := workload.NewRNG(seed)
	reqs := make([]xacml.Request, enforceRequests)
	for i := range reqs {
		reqs[i] = taskRequest(workload.Pick(rng, serveActions))
	}
	return &serveAMS{ams: ams, in: in, rec: rec, ctx: ctx, reqs: reqs}, nil
}

// checkOutcome compares an Enforce outcome with the interpreter's answer
// over the served generation.
func (s *serveAMS) checkOutcome(req xacml.Request, out agenp.Outcome) error {
	snap := s.ams.Engine().Current()
	if snap == nil {
		return errors.New("no generation served")
	}
	d, pid := s.in.Decide(snap.Policies, req)
	if out.Decision != d || out.PolicyID != pid {
		return fmt.Errorf("enforced %v (%s), interpreter says %v (%s)", out.Decision, out.PolicyID, d, pid)
	}
	return nil
}

// enforceResult is the untraced in-process phase.
type enforceResult struct {
	calls, failed, wrong int
	blocks               []float64 // every block's ns per call
}

// nsPerCall is the median block's time per call.
func (r *enforceResult) nsPerCall() float64 { return median(r.blocks) }

// fastestNsPerCall is the fastest block's time per call.
func (r *enforceResult) fastestNsPerCall() float64 { return quantile(r.blocks, 0) }

// blocks runs f, which makes enforceBlock calls, until the budget is
// spent (at least three times) and returns each run's ns per call.
func blocks(ctx context.Context, budget time.Duration, f func(block int)) []float64 {
	var per []float64
	t0 := time.Now()
	for b := 0; ctx.Err() == nil; b++ {
		if b >= 3 && time.Since(t0) >= budget {
			break
		}
		s := time.Now()
		f(b)
		per = append(per, float64(time.Since(s).Nanoseconds())/enforceBlock)
	}
	return per
}

// enforcer times AMS.Enforce (PIP context, PDP engine decision with the
// recorder, effector and monitor log) in fixed-count blocks, in slices
// of the run that alternate with the closed loop's. One sampled call
// per block is checked against the interpreter.
type enforcer struct {
	s    *serveAMS
	logf func(string, ...any)
	n    int // blocks made, warm-up included
	r    enforceResult
}

// newEnforcer builds the in-process PEP and runs one warm-up block.
func newEnforcer(cfg config) (*enforcer, error) {
	s, err := newServeAMS(mix(cfg.seed, 3))
	if err != nil {
		return nil, err
	}
	e := &enforcer{s: s, logf: cfg.logf}
	e.block()
	return e, nil
}

// block makes enforceBlock calls and checks one of them.
func (e *enforcer) block() {
	pick := (e.n * 7919) % enforceBlock
	e.n++
	e.r.calls += enforceBlock
	var sample agenp.Outcome
	for i := 0; i < enforceBlock; i++ {
		out := e.s.ams.Enforce(e.s.reqs[i&(enforceRequests-1)])
		if out.Err != nil {
			e.r.failed++
		}
		if i == pick {
			sample = out
		}
	}
	if err := e.s.checkOutcome(e.s.reqs[pick&(enforceRequests-1)], sample); err != nil {
		e.r.failed++
		e.r.wrong++
		e.logf("enforce: %v", err)
	}
}

// run times blocks for one slice of the run, on the CPU agenpd uses
// (idle meanwhile).
func (e *enforcer) run(ctx context.Context, budget time.Duration) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	defer pinThread()()
	per := blocks(ctx, budget, func(int) { e.block() })
	e.r.blocks = append(e.r.blocks, per...)
}

// enforceLayers is the traced in-process phase.
type enforceLayers struct {
	calls, failed, wrong int
	layers               map[string]float64
	tracedNsPerCall      float64
}

// runEnforceLayers times the calls Enforce makes, each in its own
// blocks: Engine.Decide, Engine.DecideBatch (four requests a batch) and
// agenp.ContextKey. It then runs Enforce with a span around every call
// (the tracing overhead) and counts the recorder's records per call.
func runEnforceLayers(ctx context.Context, cfg config, budget time.Duration, tr *tracer) (enforceLayers, error) {
	var r enforceLayers
	s, err := newServeAMS(mix(cfg.seed, 3))
	if err != nil {
		return r, err
	}
	part := budget / 4
	eng := s.ams.Engine()
	mask := enforceRequests - 1

	tr.start("engine.decide")
	decide := median(blocks(ctx, part, func(int) {
		for i := 0; i < enforceBlock; i++ {
			if _, _, err := eng.Decide(s.reqs[i&mask]); err != nil {
				r.failed++
			}
		}
		r.calls += enforceBlock
	}))
	tr.end()

	tr.start("engine.decide_batch")
	out := make([]engine.Result, 0, 4)
	batch := median(blocks(ctx, part, func(int) {
		for i := 0; i < enforceBlock; i += 4 {
			var err error
			if out, err = eng.DecideBatch(s.reqs[i&mask:i&mask+4], out[:0]); err != nil {
				r.failed++
			}
		}
		r.calls += enforceBlock / 4
	}))
	tr.end()

	tr.start("agenp.context_key")
	ck := median(blocks(ctx, part, func(int) {
		for i := 0; i < enforceBlock; i++ {
			_ = agenp.ContextKey(s.ctx)
		}
	}))
	tr.end()

	tr.start("agenp.enforce")
	rec0 := s.rec.Stats().Recorded
	calls0 := r.calls
	inner := &tracer{base: time.Now(), spans: make([]span, 0, enforceBlock), open: make([]int, 0, 1)}
	traced := median(blocks(ctx, part, func(b int) {
		inner.spans = inner.spans[:0]
		pick := (b * 7919) % enforceBlock
		for i := 0; i < enforceBlock; i++ {
			req := s.reqs[i&mask]
			inner.start("agenp.enforce")
			o := s.ams.Enforce(req)
			inner.end()
			if o.Err != nil {
				r.failed++
			}
			if i == pick {
				if err := s.checkOutcome(req, o); err != nil {
					r.failed++
					r.wrong++
					cfg.logf("enforce: %v", err)
				}
			}
		}
		r.calls += enforceBlock
	}))
	tr.end()
	records := float64(s.rec.Stats().Recorded - rec0)
	r.layers = map[string]float64{
		"engine.decide_ns":       decide,
		"engine.decide_batch_ns": batch,
		"agenp.context_key_ns":   ck,
		"obs.recorder_records":   ratio(records, float64(r.calls-calls0)),
	}
	r.tracedNsPerCall = traced
	return r, nil
}
