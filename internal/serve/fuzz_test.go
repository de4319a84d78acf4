package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzRequestBodies posts arbitrary bodies to the run, sweep and explore
// endpoints of a server that is already draining. Every handler
// validates its request before it checks for draining, so each input
// is answered 400 (invalid) or 503 (valid, but the server takes no new
// work): never a 500, never a panic, and never a simulation.
func FuzzRequestBodies(f *testing.F) {
	for _, seed := range []string{
		// The README's example requests.
		`{"design":"HYBRID2","workload":"lbm",
          "config":{"scale":16,"nm_ratio16":1,"instr_per_core":1000000,"seed":1}}`,
		`{"designs":["Baseline","HYBRID2"],"workloads":["lbm","mcf"]}`,
		`{"families":["H2DSE"],"workloads":["mcf"],"budget":48}`,
		`{"design":"HYBRID2","workload":"lbm"}`,
		`{"designs":["HYBRID2"],"workloads":["lbm"],
  "series":{"window_instr":8192}}`,
		`{"families":["H2DSE"],"workloads":["mcf"],"budget":8,"batch_size":4,"seed":3,"max_per_param":3,"screen_instr_per_core":3000,"config":{"scale":16,"nm_ratio16":1,"instr_per_core":30000,"seed":1}}`,
		// Near misses.
		`{"design":"H2DSE-0-0-0","workload":"lbm"}`,
		`{"designs":[],"workloads":["lbm"]}`,
		`{"families":["H2DSE"],"budget":-1}`,
		`{"config":{"scale":-1,"nm_ratio16":3}}`,
		`{"desing":"HYBRID2"}`,
		`[]`, `null`, ``, `{`,
	} {
		f.Add([]byte(seed))
	}
	s, err := New(Options{})
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/v1/run", "/v1/sweep", "/v1/explore"} {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest("POST", path, bytes.NewReader(body)))
			if w.Code != http.StatusBadRequest && w.Code != http.StatusServiceUnavailable {
				t.Errorf("POST %s %q: status %d, want 400 or 503: %s", path, body, w.Code, w.Body)
			}
		}
		if n := s.sims.Value(); n != 0 {
			t.Fatalf("a draining server ran %d simulation(s)", n)
		}
	})
}
