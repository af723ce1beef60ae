package main

import (
	"context"
	"fmt"
	"time"

	agenproot "agenp"
	"agenp/internal/apps/cav"
	"agenp/internal/apps/datashare"
	"agenp/internal/apps/resupply"
	"agenp/internal/asg"
	"agenp/internal/asglearn"
	"agenp/internal/ilasp"
)

// The learn workload runs rounds of learning tasks. A round is every
// (kind, size) pair once, each with its own training and held-out seeds,
// so every round has the same mix and a run always ends on a round
// boundary.
var (
	asgSizes = []int{12, 24, 48}
	appSizes = []int{20, 40, 80}
	appKinds = []string{"cav", "datashare", "resupply"}
)

// heldOutItems is the number of held-out items each result is scored on.
const heldOutItems = 40

type learnTask struct {
	kind string // "asg" (agenp.LearnASG on the CAV grammar) or an app name
	n    int
	// train and held seed the training examples and the held-out items;
	// they are distinct streams of the run seed.
	train, held uint64
}

func learnRound(seed uint64, round int) []learnTask {
	var ts []learnTask
	add := func(kind string, n int) {
		i := uint64(len(ts))
		ts = append(ts, learnTask{
			kind:  kind,
			n:     n,
			train: mix(seed, uint64(round), i, 0),
			held:  mix(seed, uint64(round), i, 1),
		})
	}
	for _, n := range asgSizes {
		add("asg", n)
	}
	for _, kind := range appKinds {
		for _, n := range appSizes {
			add(kind, n)
		}
	}
	return ts
}

// learnEnv is the learn workload's set-up: the CAV grammar and
// hypothesis space, and the size of each application's candidate space.
type learnEnv struct {
	initial    *asg.Grammar
	space      []asg.HypothesisRule
	candidates map[string]int
}

func newLearnEnv() (*learnEnv, error) {
	g, err := asg.ParseASG(cav.LearnableGrammarSource)
	if err != nil {
		return nil, err
	}
	space, err := cav.HypothesisSpace()
	if err != nil {
		return nil, err
	}
	env := &learnEnv{initial: g, space: space, candidates: map[string]int{"asg": len(space)}}
	for kind, b := range map[string]ilasp.Bias{"cav": cav.Bias(), "datashare": datashare.Bias(), "resupply": resupply.Bias()} {
		cands, err := b.Space()
		if err != nil {
			return nil, fmt.Errorf("%s bias: %w", kind, err)
		}
		env.candidates[kind] = len(cands)
	}
	return env, nil
}

// taskSteps are one task's learning and scoring calls, over inputs the
// steps were built with.
type taskSteps struct {
	learn func() (covered, total int, err error)
	// score returns the held-out items scored correctly and scored.
	score func() (correct, scored int, err error)
}

// asgSteps learns the CAV grammar with agenp.LearnASG from "accept
// <task>" examples, valid exactly when the ground truth accepts the
// scenario, and scores the learned grammar's membership verdicts.
func (e *learnEnv) asgSteps(t learnTask) taskSteps {
	train, held := cav.Generate(t.train, t.n), cav.Generate(t.held, heldOutItems)
	examples := make([]asglearn.Example, len(train))
	for i, s := range train {
		examples[i] = asglearn.Example{
			ID:       fmt.Sprintf("acc%d", i),
			Tokens:   []string{"accept", s.Task},
			Context:  scenarioContext(s),
			Positive: s.Accept,
		}
	}
	var res *asglearn.Result
	return taskSteps{
		learn: func() (int, int, error) {
			var err error
			if res, err = agenproot.LearnASG(e.initial, e.space, examples, ilasp.LearnOptions{MaxRules: 2}); err != nil {
				return 0, 0, err
			}
			return res.Covered, res.Total, nil
		},
		score: func() (correct, scored int, err error) {
			for _, s := range held {
				ok, err := res.Grammar.WithContext(scenarioContext(s)).Accepts([]string{"accept", s.Task}, asg.AcceptOptions{})
				if err != nil {
					return correct, scored, err
				}
				scored++
				if ok == s.Accept {
					correct++
				}
			}
			return correct, scored, nil
		},
	}
}

// appSteps builds an application learner's steps from its item
// generator, learner and accuracy.
func appSteps[T, L any](gen func(uint64, int) []T, learn func([]T, ilasp.LearnOptions) (L, error), result func(L) *ilasp.Result, accuracy func(L, []T) (float64, error)) func(learnTask) taskSteps {
	return func(t learnTask) taskSteps {
		train, held := gen(t.train, t.n), gen(t.held, heldOutItems)
		var l L
		return taskSteps{
			learn: func() (int, int, error) {
				var err error
				if l, err = learn(train, ilasp.LearnOptions{}); err != nil {
					return 0, 0, err
				}
				return result(l).Covered, result(l).Total, nil
			},
			score: func() (int, int, error) {
				acc, err := accuracy(l, held)
				return int(acc*heldOutItems + 0.5), heldOutItems, err
			},
		}
	}
}

var appLearners = map[string]func(learnTask) taskSteps{
	"cav":       appSteps(cav.Generate, cav.Learn, func(l *cav.Learned) *ilasp.Result { return l.Result }, (*cav.Learned).Accuracy),
	"datashare": appSteps(datashare.Generate, datashare.Learn, func(l *datashare.Learned) *ilasp.Result { return l.Result }, (*datashare.Learned).Accuracy),
	"resupply":  appSteps(resupply.Generate, resupply.Learn, func(l *resupply.Learned) *ilasp.Result { return l.Result }, (*resupply.Learned).Accuracy),
}

// taskOutcome is one learned task, scored.
type taskOutcome struct {
	learn           time.Duration
	covered, total  int
	correct, scored int
}

// run builds the task's inputs, learns, and scores the result, each
// phase a span under the caller's task span.
func (e *learnEnv) run(t learnTask, tr *tracer) (taskOutcome, error) {
	var out taskOutcome
	tr.start("learn.inputs")
	var steps taskSteps
	if t.kind == "asg" {
		steps = e.asgSteps(t)
	} else {
		steps = appLearners[t.kind](t)
	}
	tr.end()

	tr.start("ilasp.learn")
	t0 := time.Now()
	covered, total, err := steps.learn()
	out.learn = time.Since(t0)
	tr.end()
	if err != nil {
		return out, fmt.Errorf("learning %s/%d: %w", t.kind, t.n, err)
	}
	out.covered, out.total = covered, total

	tr.start("learn.score")
	out.correct, out.scored, err = steps.score()
	tr.end()
	if err != nil {
		return out, fmt.Errorf("scoring %s/%d: %w", t.kind, t.n, err)
	}
	return out, nil
}

// learnPass is what one pass over whole rounds measured.
type learnPass struct {
	rounds, tasks, failed, wrong int
	learn                        []float64 // learner call per task, us
	wall, cpu                    time.Duration
	correct, scored              int
	obs                          obsDelta
	candidates                   int // candidate rules over all tasks
}

// runLearnPass runs whole rounds until the budget is spent (or exactly
// units rounds when units > 0).
func runLearnPass(ctx context.Context, cfg config, env *learnEnv, budget time.Duration, units int, tr *tracer) learnPass {
	var p learnPass
	from := markObs()
	cpu0, t0 := selfCPU(), time.Now()
	for round := 0; ; round++ {
		if ctx.Err() != nil {
			break
		}
		if units > 0 && round >= units {
			break
		}
		if units <= 0 && round > 0 && time.Since(t0) >= budget {
			break
		}
		for _, t := range learnRound(cfg.seed, round) {
			tr.start("learn.task")
			o, err := env.run(t, tr)
			tr.end()
			p.tasks++
			p.candidates += env.candidates[t.kind]
			if err != nil {
				cfg.logf("task failed: %v", err)
				p.failed++
				continue
			}
			if o.covered != o.total {
				cfg.logf("task %s/%d covered %d of %d examples", t.kind, t.n, o.covered, o.total)
				p.failed++
				p.wrong++
				continue
			}
			p.learn = append(p.learn, us(o.learn))
			p.correct += o.correct
			p.scored += o.scored
		}
		p.rounds++
	}
	p.wall, p.cpu = time.Since(t0), selfCPU()-cpu0
	p.obs = obsDelta{from: from, to: markObs()}
	return p
}

func runLearn(ctx context.Context, cfg config) (*result, error) {
	// Set-up is repeated and reported as a median, so one slow start
	// does not decide the figure.
	var env *learnEnv
	var setups []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		e, err := newLearnEnv()
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		env = e
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	res := &result{}
	if !cfg.trace {
		p := runLearnPass(ctx, cfg, env, budget, 0, nil)
		res.attempted, res.failed, res.wrong = p.tasks, p.failed, p.wrong
		res.e2e = map[string]float64{
			"p50_us":        quantile(p.learn, 0.5),
			"cpu_us_per_op": ratio(us(p.cpu), float64(p.tasks)),
			"ops_per_s":     ratio(float64(p.tasks), p.wall.Seconds()),
			"setup_s":       median(setups),
		}
		asgRate, appRate := learnRates(p)
		res.note("learn.task_p50_ms", quantile(p.learn, 0.5)/1e3, "ms")
		res.note("learn.task_p90_ms", quantile(p.learn, 0.9)/1e3, "ms")
		res.note("learn.asg_tasks_per_s", asgRate, "1/s")
		res.note("learn.ilp_tasks_per_s", appRate, "1/s")
		res.note("learn.heldout_accuracy", ratio(float64(p.correct), float64(p.scored)), "ratio")
		res.note("learn.rounds", float64(p.rounds), "count")
		return res, nil
	}

	// Traced run: an untraced pass fixes the work, then a traced pass
	// repeats exactly the same rounds.
	plain := runLearnPass(ctx, cfg, env, budget/2, 0, nil)
	tr := newTracer()
	traced := runLearnPass(ctx, cfg, env, 0, plain.rounds, tr)
	res.attempted = plain.tasks + traced.tasks
	res.failed = plain.failed + traced.failed
	res.wrong = plain.wrong + traced.wrong
	lt := tr.times()
	tasks := float64(traced.tasks)
	d := traced.obs
	layers := zeroLayers()
	layers["ilasp.search_ms"] = ratio(d.histMs("ilasp.search.duration")+d.histMs("ilasp.independent.duration"), tasks)
	layers["ilasp.checks_per_task"] = ratio(d.counter("ilasp.search.checks")+d.counter("ilasp.independent.checks"), tasks)
	layers["ilasp.sig_collapsed_ratio"] = ratio(d.counter("ilasp.sig.collapsed"), float64(traced.candidates))
	layers["ilasp.worker_utilisation"] = workerUtilisation(d)
	layers["asp.ground_ms"] = ratio(d.histMs("asp.ground.duration"), tasks)
	layers["asp.solve_ms"] = ratio(d.histMs("asp.solve.duration"), tasks)
	layers["asp.candidates_scanned_per_task"] = ratio(d.counter("asp.ground.candidates_scanned"), tasks)
	layers["learn.score_ms"] = ms(lt.perSpan("learn.score"))
	layers["learn.unattributed_ms"] = ratio(ms(lt.self["learn.task"]+lt.self["learn.inputs"]), tasks)
	layers["trace.overhead_ratio"] = ratio(traced.wall.Seconds(), plain.wall.Seconds()) - 1
	res.layer = layers
	// The span tree adds up: learner, scoring and the remainder make the
	// traced task time, compared against the untraced pass.
	res.note("learn.task_ms.traced", ratio(ms(lt.total), tasks), "ms")
	res.note("learn.task_ms.untraced", ratio(ms(plain.wall), float64(plain.tasks)), "ms")
	res.note("learn.learner_ms", ms(lt.perSpan("ilasp.learn")), "ms")
	res.note("learn.score_ms", layers["learn.score_ms"], "ms")
	res.note("learn.unattributed_ms", layers["learn.unattributed_ms"], "ms")
	if path, err := tr.write(cfg.root, cfg.workload, cfg.seed); err != nil {
		cfg.logf("writing spans: %v", err)
	} else {
		cfg.logf("spans written to %s", path)
	}
	return res, nil
}

// learnRates splits throughput between the ASG tasks and the
// application learners by their share of learner time.
func learnRates(p learnPass) (asgRate, appRate float64) {
	per := len(asgSizes) + len(appKinds)*len(appSizes)
	if p.rounds == 0 || len(p.learn) != p.rounds*per {
		return 0, 0
	}
	var asgT, appT float64
	for i, v := range p.learn {
		if i%per < len(asgSizes) {
			asgT += v
		} else {
			appT += v
		}
	}
	return ratio(float64(p.rounds*len(asgSizes)), asgT/1e6), ratio(float64(p.rounds*len(appKinds)*len(appSizes)), appT/1e6)
}

// workerUtilisation is the share of the ILASP worker pool kept busy:
// summed check time over fetch wall time times the pool width
// (GOMAXPROCS, the learners' default parallelism).
func workerUtilisation(d obsDelta) float64 {
	return ratio(d.counter("ilasp.worker.busy_ns"), d.counter("ilasp.fetch.wall_ns")*float64(currentHost().GOMAXPROCS))
}
