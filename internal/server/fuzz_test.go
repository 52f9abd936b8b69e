package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"ltp"
	"ltp/internal/pipeline"
)

// fuzzEndpoints are the request decoders FuzzServerDecode drives.
var fuzzEndpoints = []string{"/v1/run", "/v1/sweep", "/v1/cells"}

// FuzzServerDecode posts arbitrary bodies to the run, sweep and cell
// endpoints. A handler must never panic or answer 5xx, and a body that
// is not even JSON must be a 4xx. The endpoints share one admission
// rule: when RunRequest.Spec admits a /v1/run body, /v1/cells must not
// refuse its canonical spec. When SweepRequest.Spec admits a /v1/sweep
// body, every run must carry its spec's canonical form, a fixed point,
// and that form's content address. Requests carry an already-cancelled
// context and the limits allow one measured instruction, so a body that
// passes validation costs next to nothing: runs and cells are cancelled
// before they simulate, and at most one tiny sweep job runs at a time.
func FuzzServerDecode(f *testing.F) {
	seeds := []struct {
		endpoint byte
		body     string
	}{
		{0, `{"scenario":"hashjoin","max_insts":1}`},
		{0, `{"workload":"chains","scale":0.01,"max_insts":1,"use_ltp":true,"ltp":{"mode":"NR"}}`},
		{0, `{"scenario":"hashjoin","max_insts":1,"branch_pred":"tage","prefetcher":"bogus"}`},
		{0, `{"workload":"indirect","config":{"iq":-3},"max_insts":1}`},
		{1, `{"base":{"scenario":"branchy","scale":0.05,"max_insts":1},"axes":[{"name":"seed","replicate":true,"points":[{"name":"s0","patch":{"seed":0}}]}]}`},
		{1, `{"base":{},"axes":[{"name":"x","points":[]}]}`},
		{2, `{"specs":[{"Scenario":"hashjoin","MaxInsts":1}]}`},
		{2, `{"specs":[]}`},
		{0, `{"scenario":`},
		{1, `[1,2,3]`},
		{2, `{"specs":[{"MaxInsts":-1}]}`},
		{0, `{"unknown_field":1}`},
		{0, `{"scenario":"hashjoin"}`}, // the 1 M default budget binds
	}
	for _, s := range seeds {
		f.Add(s.endpoint, []byte(s.body))
	}
	// Full specs outside the design space, which /v1/cells refuses as
	// /v1/run does.
	for _, mut := range []func(*ltp.RunSpec){
		func(s *ltp.RunSpec) { s.Scale = -1 },
		func(s *ltp.RunSpec) { s.Pipeline = sizedConfig(func(c *pipeline.Config) { c.IQSize = 2 }) },
		withTickets(200),
		func(s *ltp.RunSpec) { s.Corunners = []ltp.Corunner{{Scenario: "memhog", Intensity: 5000}} },
		func(s *ltp.RunSpec) { s.Corunners = []ltp.Corunner{{Scenario: "memhog", Accesses: 2 << 20}} },
	} {
		spec := ltp.RunSpec{Scenario: "hashjoin", MaxInsts: 1}
		mut(&spec)
		body, err := json.Marshal(CellsRequest{Specs: []ltp.RunSpec{spec}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(byte(2), body)
	}
	lim := Limits{
		MaxWarmInsts: 1, MaxDetailInsts: 1, MaxSeeds: 1, MaxCells: 1,
		MaxActiveJobs: 1, RunTimeoutSeconds: 5,
	}
	srv, err := New(Config{Parallelism: 1, Limits: lim})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	f.Fuzz(func(t *testing.T, endpoint byte, body []byte) {
		path := fuzzEndpoints[int(endpoint)%len(fuzzEndpoints)]
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(cancelled)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("POST %s %q: status %d: %s", path, body, rec.Code, rec.Body.String())
		}
		if !json.Valid(body) && (rec.Code < 400 || rec.Code > 499) {
			t.Fatalf("POST %s with a malformed body %q: status %d, want 4xx", path, body, rec.Code)
		}
		if path == "/v1/sweep" {
			var sweep SweepRequest
			if DecodeJSON(httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)), &sweep) != nil {
				return
			}
			spec, err := sweep.Spec(lim)
			if err != nil {
				return
			}
			runs, err := spec.Runs()
			if err != nil {
				t.Fatalf("SweepRequest.Spec admitted %q, but its runs do not enumerate: %v", body, err)
			}
			for _, r := range runs {
				for _, s := range []ltp.RunSpec{r.Spec, r.Canonical} {
					canon, err := s.Canonical()
					if err != nil || !reflect.DeepEqual(canon, r.Canonical) {
						t.Fatalf("sweep %q run %v: its canonical spec is not the fixed point of its spec (%v)", body, r.Coords, err)
					}
				}
				if h, err := r.Spec.Hash(); err != nil || h != r.Hash {
					t.Fatalf("sweep %q run %v carries hash %s; its spec hashes to %s (%v)", body, r.Coords, r.Hash, h, err)
				}
			}
			return
		}
		if path != "/v1/run" {
			return
		}
		var run RunRequest
		if DecodeJSON(httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)), &run) != nil {
			return
		}
		spec, err := run.Spec(lim)
		if err != nil {
			return
		}
		canon, err := spec.Canonical()
		if err != nil {
			t.Fatalf("RunRequest.Spec admitted %q, but its spec has no canonical form: %v", body, err)
		}
		cells, err := json.Marshal(CellsRequest{Specs: []ltp.RunSpec{canon}})
		if err != nil {
			t.Fatal(err)
		}
		req = httptest.NewRequest(http.MethodPost, "/v1/cells", bytes.NewReader(cells)).WithContext(cancelled)
		rec = httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code == http.StatusBadRequest {
			t.Fatalf("/v1/run admits %q, but /v1/cells refuses its canonical spec: %s", body, rec.Body.String())
		}
	})
}
