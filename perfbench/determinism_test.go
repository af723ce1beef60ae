package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"agenp/internal/apps/cav"
)

// TestSameSeedSameInputs checks that every workload's inputs are a pure
// function of the seed, and that another seed gives other inputs.
func TestSameSeedSameInputs(t *testing.T) {
	if !reflect.DeepEqual(serveMix(5, 500), serveMix(5, 500)) {
		t.Error("serve mix differs for one seed")
	}
	if reflect.DeepEqual(serveMix(5, 500), serveMix(6, 500)) {
		t.Error("serve mix equal for two seeds")
	}
	a, b := learnRound(5, 3), learnRound(5, 3)
	if !reflect.DeepEqual(a, b) {
		t.Error("learn round differs for one seed")
	}
	if reflect.DeepEqual(a, learnRound(6, 3)) {
		t.Error("learn round equal for two seeds")
	}
	for _, task := range a {
		if task.train == task.held {
			t.Errorf("%s/%d: training and held-out items share a seed", task.kind, task.n)
		}
	}
	if !reflect.DeepEqual(cav.Generate(mix(5, 2), episodeSteps+1), cav.Generate(mix(5, 2), episodeSteps+1)) {
		t.Error("adapt episode differs for one seed")
	}
}

// TestSameSeedSameCounts runs fixed amounts of the adapt and learn
// workloads twice: failures, adaptations and ILASP checks per task must
// repeat exactly.
func TestSameSeedSameCounts(t *testing.T) {
	space, err := cav.HypothesisSpace()
	if err != nil {
		t.Fatal(err)
	}
	type adaptCounts struct {
		attempted, failed, wrong, learns, stuck int
	}
	adapt := func() adaptCounts {
		p, err := runAdaptPass(context.Background(), testConfig(11), space, 6, engineDecide, nil)
		if err != nil {
			t.Fatal(err)
		}
		var c adaptCounts
		c.attempted, c.failed, c.wrong = p.counts()
		c.learns, c.stuck = len(p.ttsMs(kindLearn)), p.stuck
		return c
	}
	first, second := adapt(), adapt()
	if first != second {
		t.Errorf("adapt counts differ: %+v vs %+v", first, second)
	}
	if first.learns == 0 {
		t.Error("adapt episodes never adapted")
	}

	env, err := newLearnEnv()
	if err != nil {
		t.Fatal(err)
	}
	learn := func() []float64 {
		var checks []float64
		for _, task := range learnRound(11, 0) {
			from := markObs()
			if _, err := env.run(task, nil); err != nil {
				t.Fatal(err)
			}
			d := obsDelta{from: from, to: markObs()}
			checks = append(checks, d.counter("ilasp.search.checks")+d.counter("ilasp.independent.checks"))
		}
		return checks
	}
	c1, c2 := learn(), learn()
	if !reflect.DeepEqual(c1, c2) {
		t.Errorf("ILASP checks per task differ: %v vs %v", c1, c2)
	}
}

// TestDescriptionIsBenchmarkJSON keeps BENCHMARK.json in step with the
// metrics the harness reports.
func TestDescriptionIsBenchmarkJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := writeDescription(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with -describe:\n%s", buf.String())
	}
}

// TestCompareRefusesOtherHostShape saves two outputs that differ only in
// the host's CPU count: the comparison must fail.
func TestCompareRefusesOtherHostShape(t *testing.T) {
	dir := t.TempDir()
	save := func(name string, nproc int) string {
		rep := reportLine{Workload: "learn", Seed: 1, Host: hostShape{NumCPU: nproc, GOMAXPROCS: nproc, GoVersion: "go", CPUModel: "cpu"}}
		res := resultLine{Correct: true, Attempted: 1, Metrics: map[string]metricValue{"p50_us": {Value: 1, Unit: "us"}}}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		if err := enc.Encode(map[string]reportLine{"perfbench": rep}); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(res); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	two, four, twoAgain := save("a", 2), save("b", 4), save("c", 2)
	var out bytes.Buffer
	if err := compareFiles(two, four, &out); err == nil || !strings.Contains(err.Error(), "host") {
		t.Errorf("cross-host comparison: err = %v", err)
	}
	if err := compareFiles(two, twoAgain, &out); err != nil {
		t.Errorf("same-host comparison: %v", err)
	}
}
