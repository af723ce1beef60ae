package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"agenp/internal/agenp"
	"agenp/internal/apps/cav"
	"agenp/internal/asg"
	"agenp/internal/asp"
	"agenp/internal/core"
	"agenp/internal/xacml"
)

// episodeSteps is the number of context changes in one adapt episode.
// Each step is one PReP trigger and one feedback observation; every
// third negative observation triggers the PAdaP.
const episodeSteps = 12

// adaptEpisodesPerSecond sets an adapt run's work from its seconds: a run
// is a fixed number of episodes, not a time budget, so a seed always
// gives the same triggers and the same stuck-PAdaP failures. On a
// two-vCPU Xeon host 30 seconds' worth of episodes take about 25.
const adaptEpisodesPerSecond = 32

// adaptThreshold is the negative-feedback count that triggers learning,
// as cmd/experiments E2 configures its CAV AMS.
const adaptThreshold = 3

// episodeContext is the benchmark-owned ContextProvider: each step
// switches the AMS to the next scenario's environment.
type episodeContext struct{ prog *asp.Program }

func (c *episodeContext) Current() *asp.Program { return c.prog }

func scenarioContext(s cav.Scenario) *asp.Program {
	ctx := s.EnvContext()
	ctx.Extend(cav.Background())
	return ctx
}

// newCAVAMS builds the E2 CAV AMS (verification gate off, as in agenpd)
// and installs its first generation under ctx.
func newCAVAMS(space []asg.HypothesisRule, provider *episodeContext) (*agenp.AMS, *agenp.TokenInterpreter, error) {
	model, err := core.ParseGPM(cav.LearnableGrammarSource)
	if err != nil {
		return nil, nil, err
	}
	in := &agenp.TokenInterpreter{PermitVerbs: []string{"accept"}, DenyVerbs: []string{"reject"}}
	ams, err := agenp.New(agenp.Config{
		Name:        "cav-ams",
		Model:       model,
		Space:       space,
		Context:     provider,
		Interpreter: in,
		Effector: agenp.EffectorFunc(func(req xacml.Request, d xacml.Decision) (bool, error) {
			task, _ := req.Get(xacml.Action, "id")
			return d == xacml.DecisionPermit && cav.RiskyTasks[task.Str], nil
		}),
		AdaptThreshold: adaptThreshold,
	})
	if err != nil {
		return nil, nil, err
	}
	if _, _, err := ams.Regenerate(); err != nil {
		return nil, nil, fmt.Errorf("initial PReP: %w", err)
	}
	return ams, in, nil
}

func taskRequest(task string) xacml.Request {
	return xacml.NewRequest().Set(xacml.Action, "id", xacml.S(task))
}

// checkServed verifies the first decision after a trigger: the engine
// moved to a newer generation, serves the repository's current one, and
// decides as the interpreter does over that generation's policies.
func checkServed(ams *agenp.AMS, in *agenp.TokenInterpreter, before uint64, req xacml.Request, d xacml.Decision, pid string, err error) error {
	snap := ams.Engine().Current()
	if snap == nil || snap.Generation <= before {
		return fmt.Errorf("generation did not advance past %d", before)
	}
	if snap.Generation != ams.Repository().Generation() {
		return fmt.Errorf("served generation %d, repository at %d", snap.Generation, ams.Repository().Generation())
	}
	wantD, wantPID := in.Decide(snap.Policies, req)
	if err != nil && len(snap.Policies) > 0 {
		return fmt.Errorf("decide: %w", err)
	}
	if d != wantD || pid != wantPID {
		return fmt.Errorf("served %v (%s), interpreter says %v (%s)", d, pid, wantD, wantPID)
	}
	return nil
}

// trigger kinds.
const (
	kindRegen = "regen"
	kindLearn = "learn"
)

// triggerOutcome is one trigger on the untraced AMS.
type triggerOutcome struct {
	kind   string
	tts    time.Duration // trigger to first decision on the new generation
	failed bool          // the AMS returned an error (no new generation)
	wrong  bool          // a check on the served decision failed
	ids    []string      // installed policy ids after the trigger
}

// decideFunc serves the first decision after a trigger; tests substitute
// a wrong one.
type decideFunc func(ams *agenp.AMS, req xacml.Request) (xacml.Decision, string, error)

func engineDecide(ams *agenp.AMS, req xacml.Request) (xacml.Decision, string, error) {
	return ams.Decide(req)
}

func policyIDs(ams *agenp.AMS) []string {
	ps := ams.Repository().Snapshot().Policies
	ids := make([]string, len(ps))
	for i, p := range ps {
		ids[i] = p.ID
	}
	slices.Sort(ids)
	return ids
}

// plainStep runs one step on the untraced AMS: a context change and
// regeneration, then one feedback observation. It returns one outcome
// per trigger (the observation is a trigger only when the PAdaP ran).
func plainStep(ams *agenp.AMS, in *agenp.TokenInterpreter, provider *episodeContext, s cav.Scenario, decide decideFunc, log func(string, ...any)) []triggerOutcome {
	req := taskRequest(s.Task)
	ctx := scenarioContext(s)
	var outs []triggerOutcome

	provider.prog = ctx
	before := ams.Engine().Generation()
	t0 := time.Now()
	_, _, err := ams.Regenerate()
	out := triggerOutcome{kind: kindRegen}
	if err != nil {
		out.failed = true
		log("regeneration failed: %v", err)
	} else {
		d, pid, derr := decide(ams, req)
		out.tts = time.Since(t0)
		if cerr := checkServed(ams, in, before, req, d, pid, derr); cerr != nil {
			out.failed, out.wrong = true, true
			log("after regeneration: %v", cerr)
		}
	}
	out.ids = policyIDs(ams)
	outs = append(outs, out)

	before = ams.Engine().Generation()
	t0 = time.Now()
	adapted, err := ams.Observe(core.Feedback{Tokens: []string{"accept", s.Task}, Context: ctx, Valid: s.Accept})
	switch {
	case err != nil:
		// A stuck PAdaP: the batch cannot be learned, the AMS keeps it,
		// and the previous generation stays in service.
		out = triggerOutcome{kind: kindLearn, failed: true, tts: time.Since(t0)}
	case adapted:
		out = triggerOutcome{kind: kindLearn}
		d, pid, derr := decide(ams, req)
		out.tts = time.Since(t0)
		if cerr := checkServed(ams, in, before, req, d, pid, derr); cerr != nil {
			out.failed, out.wrong = true, true
			log("after adaptation: %v", cerr)
		}
	default:
		return outs
	}
	out.ids = policyIDs(ams)
	return append(outs, out)
}

// adaptPass is what one pass over whole episodes measured.
type adaptPass struct {
	episodes, stuck int
	triggers        []triggerOutcome
	setups          []float64 // s
	wall, cpu       time.Duration
	// traced breakdown (traced pass only)
	evolveOK, evolveFailed []time.Duration
	learnObs               *obsTotals
	evolveCalls            int
	idMismatches           int
}

func (p *adaptPass) counts() (attempted, failed, wrong int) {
	for _, t := range p.triggers {
		attempted++
		if t.failed {
			failed++
		}
		if t.wrong {
			wrong++
		}
	}
	return attempted, failed + p.idMismatches, wrong + p.idMismatches
}

// runAdaptPass runs episodes whole episodes. With a tracer, every step
// also runs on a second AMS driven through the traced breakdown, and the
// two must install the same policies.
func runAdaptPass(ctx context.Context, cfg config, space []asg.HypothesisRule, episodes int, decide decideFunc, tr *tracer) (*adaptPass, error) {
	p := &adaptPass{}
	if tr != nil {
		p.learnObs = newObsTotals()
	}
	cpu0, t0 := selfCPU(), time.Now()
	for ep := 0; ep < episodes && ctx.Err() == nil; ep++ {
		scenarios := cav.Generate(mix(cfg.seed, uint64(ep)), episodeSteps+1)
		provider := &episodeContext{prog: scenarioContext(scenarios[0])}
		s0 := time.Now()
		ams, in, err := newCAVAMS(space, provider)
		if err != nil {
			return nil, err
		}
		p.setups = append(p.setups, time.Since(s0).Seconds())
		var traced *tracedAMS
		if tr != nil {
			if traced, err = newTracedAMS(space, scenarioContext(scenarios[0])); err != nil {
				return nil, err
			}
		}
		stuck := false
		for _, s := range scenarios[1:] {
			outs := plainStep(ams, in, provider, s, decide, cfg.logf)
			for _, o := range outs {
				if o.kind == kindLearn && o.failed && !o.wrong {
					stuck = true
				}
			}
			p.triggers = append(p.triggers, outs...)
			if traced != nil {
				touts := traced.step(s, tr, p)
				if !sameTriggers(outs, touts) {
					p.idMismatches++
					cfg.logf("episode %d: traced breakdown diverged from the AMS", ep)
				}
			}
		}
		if stuck {
			p.stuck++
		}
		p.episodes++
	}
	p.wall, p.cpu = time.Since(t0), selfCPU()-cpu0
	return p, nil
}

// sameTriggers reports whether the traced breakdown produced the same
// triggers, outcomes and installed policy ids as the AMS.
func sameTriggers(a, b []triggerOutcome) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].kind != b[i].kind || a[i].failed != b[i].failed || !slices.Equal(a[i].ids, b[i].ids) {
			return false
		}
	}
	return true
}

// ttsMs returns trigger-to-serve times of successful triggers of a kind.
func (p *adaptPass) ttsMs(kind string) []float64 {
	var xs []float64
	for _, t := range p.triggers {
		if t.kind == kind && !t.failed {
			xs = append(xs, ms(t.tts))
		}
	}
	return xs
}

func (p *adaptPass) totalTrigger() time.Duration {
	var d time.Duration
	for _, t := range p.triggers {
		d += t.tts
	}
	return d
}

func runAdapt(ctx context.Context, cfg config) (*result, error) {
	space, err := cav.HypothesisSpace()
	if err != nil {
		return nil, err
	}
	episodes := max(2, int(cfg.seconds*adaptEpisodesPerSecond))
	res := &result{}
	if !cfg.trace {
		p, err := runAdaptPass(ctx, cfg, space, episodes, engineDecide, nil)
		if err != nil {
			return nil, err
		}
		res.attempted, res.failed, res.wrong = p.counts()
		learn, regen := p.ttsMs(kindLearn), p.ttsMs(kindRegen)
		n := float64(len(p.triggers))
		res.e2e = map[string]float64{
			"p50_us":        quantile(learn, 0.5) * 1e3,
			"cpu_us_per_op": ratio(us(p.cpu), n),
			"ops_per_s":     ratio(n, p.wall.Seconds()),
			"setup_s":       median(p.setups),
		}
		res.note("adapt.tts_learn_p50_ms", quantile(learn, 0.5), "ms")
		res.note("adapt.tts_learn_p90_ms", quantile(learn, 0.9), "ms")
		res.note("adapt.tts_regen_p50_ms", quantile(regen, 0.5), "ms")
		res.note("adapt.tts_regen_p99_ms", quantile(regen, 0.99), "ms")
		res.note("adapt.triggers_per_s", res.e2e["ops_per_s"], "1/s")
		res.note("adapt.learn_triggers", float64(len(learn)), "count")
		res.note("adapt.regen_triggers", float64(len(regen)), "count")
		res.note("adapt.episodes", float64(p.episodes), "count")
		res.note("adapt.stuck_episodes", float64(p.stuck), "count")
		return res, nil
	}

	// Traced run: an untraced pass, then the same episodes again with the
	// traced breakdown in lockstep.
	plain, err := runAdaptPass(ctx, cfg, space, episodes/2, engineDecide, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	p, err := runAdaptPass(ctx, cfg, space, episodes/2, engineDecide, tr)
	if err != nil {
		return nil, err
	}
	a1, f1, w1 := plain.counts()
	a2, f2, w2 := p.counts()
	res.attempted, res.failed, res.wrong = a1+a2, f1+f2, w1+w2
	lt := tr.times()
	res.layer = adaptLayers(p, lt)
	untraced := ratio(ms(p.totalTrigger()), float64(len(p.triggers)))
	traced := ratio(ms(lt.total), float64(lt.roots))
	res.layer["trace.overhead_ratio"] = ratio(traced, untraced) - 1
	res.note("adapt.trigger_ms.untraced", untraced, "ms")
	res.note("adapt.trigger_ms.traced", traced, "ms")
	res.note("adapt.trigger_ms.sum_of_layers", layerSum(res.layer, lt), "ms")
	res.note("adapt.policy_id_mismatches", float64(p.idMismatches), "count")
	if path, err := tr.write(cfg.root, cfg.workload, cfg.seed); err != nil {
		cfg.logf("writing spans: %v", err)
	} else {
		cfg.logf("spans written to %s", path)
	}
	return res, nil
}
