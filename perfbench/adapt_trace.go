package main

import (
	"fmt"
	"time"

	"agenp/internal/agenp"
	"agenp/internal/apps/cav"
	"agenp/internal/asg"
	"agenp/internal/asp"
	"agenp/internal/aspcheck"
	"agenp/internal/core"
)

// tracedAMS drives a CAV AMS's components through the public calls that
// AMS.adaptLocked and AMS.regenerateLocked make, with a span around
// each: GPM.Evolve, GPM.Lint, GPM.Generate, PCP.Filter,
// Repository.ReplaceAll, Engine.Refresh and the first Engine.Decide. It
// keeps its own feedback with Observe's threshold rule. The run checks
// that it installs the same policies as the AMS it shadows.
type tracedAMS struct {
	ams      *agenp.AMS
	in       *agenp.TokenInterpreter
	provider *episodeContext
	space    []asg.HypothesisRule
	feedback []core.Feedback
}

func newTracedAMS(space []asg.HypothesisRule, ctx *asp.Program) (*tracedAMS, error) {
	provider := &episodeContext{prog: ctx}
	ams, in, err := newCAVAMS(space, provider)
	if err != nil {
		return nil, err
	}
	return &tracedAMS{ams: ams, in: in, provider: provider, space: space}, nil
}

// regenerate is the PReP: acquire the context, lint, generate, filter
// through the PCP, install, recompile.
func (t *tracedAMS) regenerate(tr *tracer) error {
	tr.start("agenp.pip")
	ctx := t.provider.Current()
	_ = agenp.ContextKey(ctx)
	tr.end()
	model := t.ams.Models().Latest()
	tr.start("aspcheck.lint")
	findings := model.Lint(ctx)
	tr.end()
	if findings.HasErrors() {
		return fmt.Errorf("lint: %s", findings.Filter(aspcheck.Error)[0])
	}
	tr.start("core.generate")
	generated, err := model.Generate(ctx)
	tr.end()
	if err != nil {
		return err
	}
	tr.start("agenp.pcp_filter")
	accepted, _ := t.ams.PCP().Filter(generated, ctx)
	tr.end()
	tr.start("policy.replace_all")
	t.ams.Repository().ReplaceAll(accepted)
	tr.end()
	tr.start("engine.refresh")
	_, err = t.ams.Engine().Refresh()
	tr.end()
	return err
}

// decide serves the first decision on the new generation and checks it.
func (t *tracedAMS) decide(task string, before uint64, tr *tracer) error {
	req := taskRequest(task)
	tr.start("engine.decide")
	d, pid, err := t.ams.Engine().Decide(req)
	tr.end()
	return checkServed(t.ams, t.in, before, req, d, pid, err)
}

// step mirrors plainStep through the traced breakdown, recording evolve
// times and the learner's obs counters into p.
func (t *tracedAMS) step(s cav.Scenario, tr *tracer, p *adaptPass) []triggerOutcome {
	ctx := scenarioContext(s)
	var outs []triggerOutcome

	t.provider.prog = ctx
	before := t.ams.Engine().Generation()
	tr.start("adapt.trigger")
	out := triggerOutcome{kind: kindRegen}
	if err := t.regenerate(tr); err != nil {
		out.failed = true
	} else if err := t.decide(s.Task, before, tr); err != nil {
		out.failed, out.wrong = true, true
	}
	tr.end()
	out.ids = policyIDs(t.ams)
	outs = append(outs, out)

	t.feedback = append(t.feedback, core.Feedback{Tokens: []string{"accept", s.Task}, Context: ctx, Valid: s.Accept})
	negatives := 0
	for _, f := range t.feedback {
		if !f.Valid {
			negatives++
		}
	}
	if negatives < adaptThreshold {
		return outs
	}
	before = t.ams.Engine().Generation()
	tr.start("adapt.trigger")
	out = triggerOutcome{kind: kindLearn}
	examples := core.ExamplesFromFeedback(t.feedback)
	from := markObs()
	tr.start("core.evolve")
	evo, err := t.ams.Models().Latest().Evolve(t.space, examples, core.EvolveOptions{})
	d := tr.end()
	p.learnObs.add(obsDelta{from: from, to: markObs()})
	p.evolveCalls++
	if err != nil {
		p.evolveFailed = append(p.evolveFailed, d)
		out.failed = true
	} else {
		p.evolveOK = append(p.evolveOK, d)
		t.ams.Models().Push(evo.Model)
		t.feedback = t.feedback[:0]
		if err := t.regenerate(tr); err != nil {
			out.failed = true
		} else if err := t.decide(s.Task, before, tr); err != nil {
			out.failed, out.wrong = true, true
		}
	}
	tr.end()
	out.ids = policyIDs(t.ams)
	return append(outs, out)
}

// regenLayers are the spans of one regeneration that own a per-layer
// metric, with the metric's name and unit scale.
var regenLayers = []struct {
	span, metric string
	scale        func(time.Duration) float64
}{
	{"aspcheck.lint", "aspcheck.lint_ms", ms},
	{"core.generate", "core.generate_ms", ms},
	{"agenp.pcp_filter", "agenp.pcp_filter_ms", ms},
	{"engine.refresh", "engine.refresh_ms", ms},
	{"engine.decide", "engine.first_decide_us", us},
}

// unattributedSpans are trigger time no per-layer metric owns: the
// benchmark's own code between calls, the PIP context acquisition and
// the repository swap.
var unattributedSpans = []string{"adapt.trigger", "agenp.pip", "policy.replace_all"}

func adaptLayers(p *adaptPass, lt layerTimes) map[string]float64 {
	layers := zeroLayers()
	durMs := func(ds []time.Duration) []float64 {
		xs := make([]float64, len(ds))
		for i, d := range ds {
			xs[i] = ms(d)
		}
		return xs
	}
	layers["core.evolve_ms"] = mean(durMs(p.evolveOK))
	layers["adapt.failed_search_ms"] = mean(durMs(p.evolveFailed))
	for _, l := range regenLayers {
		layers[l.metric] = l.scale(lt.perSpan(l.span))
	}
	var un time.Duration
	for _, name := range unattributedSpans {
		un += lt.self[name]
	}
	layers["adapt.unattributed_ms"] = ratio(ms(un), float64(lt.roots))

	o, calls := p.learnObs, float64(p.evolveCalls)
	ground, solve := o.histMs["asp.ground.duration"], o.histMs["asp.solve.duration"]
	busyMs := o.counters["ilasp.worker.busy_ns"] / 1e6
	layers["ilasp.checks_per_learn"] = ratio(o.counters["ilasp.search.checks"], calls)
	layers["ilasp.pruned_ratio"] = ratio(o.counters["ilasp.search.pruned"], o.counters["ilasp.search.pruned"]+o.counters["ilasp.search.hypotheses"])
	layers["ilasp.cache_hit_ratio"] = ratio(o.counters["ilasp.cache.hits"], o.counters["ilasp.cache.hits"]+o.counters["ilasp.cache.misses"])
	layers["ilasp.worker_utilisation"] = ratio(o.counters["ilasp.worker.busy_ns"], o.counters["ilasp.fetch.wall_ns"]*float64(currentHost().GOMAXPROCS))
	layers["asp.ground_ms"] = ratio(ground, calls)
	layers["asp.solve_ms"] = ratio(solve, calls)
	hits := o.counters["asp.ground.plan_cache_hits"]
	layers["asp.plan_cache_hit_ratio"] = ratio(hits, hits+o.counters["asp.ground.plans_compiled"])
	// Check time that grounding and solving do not explain: Earley
	// parse, tree-program build and context merge.
	layers["asglearn.unattributed_ms"] = ratio(busyMs-ground-solve, calls)
	return layers
}

// layerSum adds the per-layer times back up to a mean trigger time: the
// self times of the layers plus the unattributed remainder make the
// traced trigger time.
func layerSum(layers map[string]float64, lt layerTimes) float64 {
	if lt.roots == 0 {
		return 0
	}
	sum := ms(lt.self["core.evolve"])
	for _, l := range regenLayers {
		sum += ms(lt.self[l.span])
	}
	return sum/float64(lt.roots) + layers["adapt.unattributed_ms"]
}
