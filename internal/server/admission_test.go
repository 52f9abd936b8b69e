package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"ltp"
	"ltp/internal/core"
	"ltp/internal/pipeline"
)

// admissionBase is the small run every admission case starts from, as
// a spec and as the JSON fields of a request.
var admissionBase = ltp.RunSpec{Scenario: "branchy", Scale: 0.05, MaxInsts: 1000}

const admissionBaseJSON = `"scenario":"branchy","scale":0.05,"max_insts":1000`

// TestAdmissionAgrees holds every entry point to one rule: a value
// outside the design space is refused by /v1/run, by /v1/sweep as a
// patch, by /v1/cells as a full spec, and by the Go API (RunContext
// and SweepSpec.Canonical) alike.
func TestAdmissionAgrees(t *testing.T) {
	_, ts := newTestServer(t)
	five := strings.TrimSuffix(strings.Repeat(`{"scenario":"memhog"},`, 5), ",")
	cases := []struct {
		name string
		// fields are the request fields beside the base, for /v1/run
		// and, unless patch is set, for a sweep point's patch.
		fields, patch string
		mut           func(*ltp.RunSpec)
	}{
		{"scale 1.5", `"scale":1.5`, "", func(s *ltp.RunSpec) { s.Scale = 1.5 }},
		{"scale -1", `"scale":-1`, "", func(s *ltp.RunSpec) { s.Scale = -1 }},
		{"iq 2", `"config":{"iq_size":2}`, `"iq_size":2`,
			func(s *ltp.RunSpec) { s.Pipeline = sizedConfig(func(c *pipeline.Config) { c.IQSize = 2 }) }},
		{"rob 8", `"config":{"rob_size":8}`, `"rob_size":8`,
			func(s *ltp.RunSpec) { s.Pipeline = sizedConfig(func(c *pipeline.Config) { c.ROBSize = 8 }) }},
		{"200 tickets", `"use_ltp":true,"ltp":{"tickets":200}`, "", withTickets(200)},
		{"-5 tickets", `"use_ltp":true,"ltp":{"tickets":-5}`, "", withTickets(-5)},
		{"intensity 5000", `"corunners":[{"scenario":"memhog","intensity":5000}]`, "",
			func(s *ltp.RunSpec) { s.Corunners = []ltp.Corunner{{Scenario: "memhog", Intensity: 5000}} }},
		{"accesses 2M", `"corunners":[{"scenario":"memhog","accesses":2097152}]`, "",
			func(s *ltp.RunSpec) { s.Corunners = []ltp.Corunner{{Scenario: "memhog", Accesses: 2 << 20}} }},
		{"five corunners", `"corunners":[` + five + `]`, "",
			func(s *ltp.RunSpec) { s.Corunners = slices.Repeat([]ltp.Corunner{{Scenario: "memhog"}}, 5) }},
		{"unknown backend", `"backend":"bogus"`, "", func(s *ltp.RunSpec) { s.Backend = "bogus" }},
		{"unknown predictor", `"branch_pred":"bogus"`, "", func(s *ltp.RunSpec) { s.BranchPred = "bogus" }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			patch := c.patch
			if patch == "" {
				patch = c.fields
			}
			spec := admissionBase
			c.mut(&spec)
			cells, err := json.Marshal(CellsRequest{Specs: []ltp.RunSpec{spec}})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []struct{ path, body string }{
				{"/v1/run", "{" + admissionBaseJSON + "," + c.fields + "}"},
				{"/v1/sweep", fmt.Sprintf(`{"base":{%s},"axes":[{"name":"x","points":[{"name":"p","patch":{%s}}]}]}`, admissionBaseJSON, patch)},
				{"/v1/cells", string(cells)},
			} {
				var e ErrorResponse
				if resp := post(t, ts.URL+r.path, r.body, &e); resp.StatusCode != http.StatusBadRequest || e.Error == "" {
					t.Errorf("POST %s: status %d (%q); want 400 with a message", r.path, resp.StatusCode, e.Error)
				}
			}
			if _, err := ltp.RunContext(context.Background(), spec); err == nil {
				t.Error("RunContext accepted the spec")
			}
			one := int64(1)
			sweep := ltp.SweepSpec{Base: spec, Axes: []ltp.SweepAxis{{Name: "seed",
				Points: []ltp.SweepPoint{{Name: "s1", Patch: ltp.RunPatch{Seed: &one}}}}}}
			if _, err := sweep.Canonical(); err == nil {
				t.Error("SweepSpec.Canonical accepted the spec")
			}
		})
	}
}

// sizedConfig is the Table 1 core with one change.
func sizedConfig(set func(*pipeline.Config)) *pipeline.Config {
	cfg := pipeline.DefaultConfig()
	set(&cfg)
	return &cfg
}

// withTickets attaches the paper's LTP with the given ticket count.
func withTickets(n int) func(*ltp.RunSpec) {
	return func(s *ltp.RunSpec) {
		cfg := core.DefaultConfig()
		cfg.Tickets = n
		s.UseLTP, s.LTP = true, &cfg
	}
}

// TestBudgetsBindCanonicalSpec checks that the service budgets bound
// what a run will execute: an omitted max_insts counts as the 1 M
// instructions Canonical makes of it, in /v1/run and in every sweep
// cell, while a base value that every sweep cell overrides binds
// nothing.
func TestBudgetsBindCanonicalSpec(t *testing.T) {
	srv, err := New(Config{Parallelism: 2, Limits: Limits{MaxDetailInsts: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()
	seeds := `"axes":[{"name":"seed","points":[{"name":"s0","patch":{"seed":0}},{"name":"s1","patch":{"seed":1}}]}]`
	for _, r := range []struct{ path, body string }{
		{"/v1/run", `{"scenario":"branchy","scale":0.05}`},
		{"/v1/sweep", `{"base":{"scenario":"branchy","scale":0.05},` + seeds + `}`},
		{"/v1/cells", `{"specs":[{"Scenario":"branchy","Scale":0.05}]}`},
	} {
		var e ErrorResponse
		if resp := post(t, ts.URL+r.path, r.body, &e); resp.StatusCode != http.StatusBadRequest ||
			!strings.Contains(e.Error, "max_insts = 1000000") {
			t.Errorf("POST %s without max_insts: status %d (%q); want 400 naming the 1 M default", r.path, resp.StatusCode, e.Error)
		}
	}
	overridden := `{"base":{"scenario":"branchy","scale":0.05,"max_insts":999999999},` +
		`"axes":[{"name":"seed","points":[{"name":"s0","patch":{"seed":0,"max_insts":1000}},{"name":"s1","patch":{"seed":1,"max_insts":1000}}]}]}`
	var s SweepResponse
	if resp := post(t, ts.URL+"/v1/sweep?wait=1", overridden, &s); resp.StatusCode != http.StatusOK || s.Job.Status != JobDone {
		t.Errorf("sweep whose every cell overrides the base budget: status %d, job %+v; want 200 and done", resp.StatusCode, s.Job)
	}
}
