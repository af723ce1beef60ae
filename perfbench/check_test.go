package main

import (
	"context"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"agenp/internal/agenp"
	"agenp/internal/apps/cav"
	"agenp/internal/xacml"
)

func testConfig(seed uint64) config {
	return config{seed: seed, seconds: 1, log: io.Discard}
}

// flipDecide serves the first decision after a trigger wrongly.
func flipDecide(ams *agenp.AMS, req xacml.Request) (xacml.Decision, string, error) {
	d, pid, err := ams.Decide(req)
	if d == xacml.DecisionDeny {
		return xacml.DecisionPermit, pid, err
	}
	return xacml.DecisionDeny, pid, err
}

// TestInjectedWrongDecisionRaisesFailedRatio injects a wrong first
// decision after every trigger of the adapt workload: every successful
// trigger must now count as failed and wrong.
func TestInjectedWrongDecisionRaisesFailedRatio(t *testing.T) {
	space, err := cav.HypothesisSpace()
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(7)
	good, err := runAdaptPass(context.Background(), cfg, space, 2, engineDecide, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := runAdaptPass(context.Background(), cfg, space, 2, flipDecide, nil)
	if err != nil {
		t.Fatal(err)
	}
	ga, gf, gw := good.counts()
	ba, bf, bw := bad.counts()
	if gw != 0 {
		t.Fatalf("clean run reported %d wrong outputs", gw)
	}
	if ga != ba {
		t.Fatalf("attempted %d vs %d: the injection changed the workload", ga, ba)
	}
	if bf != ba || bw != ga-gf {
		t.Errorf("injected run: attempted %d failed %d wrong %d; clean run failed %d", ba, bf, bw, gf)
	}
	if float64(bf)/float64(ba) <= float64(gf)/float64(ga) {
		t.Errorf("failed ratio did not rise: %d/%d vs %d/%d", bf, ba, gf, ga)
	}
}

// TestReferenceCheckCatchesWrongReply flips one decision in an agenpd
// reply; the reference check must reject it, and every other defect a
// reply can have.
func TestReferenceCheckCatchesWrongReply(t *testing.T) {
	ref := &reference{
		answers: map[refKey]refEntry{
			{"party-a", "image"}: {decision: "Permit", policyID: "share_image"},
			{"party-a", "audio"}: {decision: "NotApplicable"},
		},
		generations: map[string]uint64{"party-a": 3},
	}
	req := makeRequest("party-a", []string{"image", "audio"})
	reply := func(gen uint64, decisions ...string) []byte {
		rep := map[string]any{"party": "party-a", "generation": gen}
		var results []map[string]string
		for i, d := range decisions {
			r := map[string]string{"action": req.actions[i], "decision": d}
			if d == "Permit" {
				r["policy_id"] = "share_image"
			}
			results = append(results, r)
		}
		rep["results"] = results
		b, _ := json.Marshal(rep)
		return b
	}
	if err := ref.check(req, 200, reply(3, "Permit", "NotApplicable")); err != nil {
		t.Fatalf("correct reply rejected: %v", err)
	}
	for name, c := range map[string]struct {
		status int
		body   []byte
	}{
		"wrong decision":   {200, reply(3, "Deny", "NotApplicable")},
		"moved generation": {200, reply(4, "Permit", "NotApplicable")},
		"missing result":   {200, reply(3, "Permit")},
		"status":           {500, []byte("boom")},
		"malformed":        {200, []byte("{")},
	} {
		if err := ref.check(req, c.status, c.body); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestEnforceCheckCatchesWrongOutcome checks the in-process PEP sample
// check against a tampered outcome.
func TestEnforceCheckCatchesWrongOutcome(t *testing.T) {
	s, err := newServeAMS(1)
	if err != nil {
		t.Fatal(err)
	}
	req := taskRequest("image")
	out := s.ams.Enforce(req)
	if err := s.checkOutcome(req, out); err != nil {
		t.Fatalf("correct outcome rejected: %v", err)
	}
	if out.Decision == xacml.DecisionDeny {
		out.Decision = xacml.DecisionPermit
	} else {
		out.Decision = xacml.DecisionDeny
	}
	if err := s.checkOutcome(req, out); err == nil || !strings.Contains(err.Error(), "interpreter") {
		t.Errorf("wrong outcome: err = %v", err)
	}
}
