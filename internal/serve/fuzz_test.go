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

// largeGapTrace is a 4-record text trace whose core-0 records each skip
// 2^63-1 instructions. Designs that stepped their periodic work once per
// elapsed period looped ~10^14 times on it, holding a sync slot forever.
const largeGapTrace = "0 9223372036854775807 0 R\n" +
	"0 9223372036854775807 40 R\n" +
	"0 9223372036854775807 80 R\n" +
	"1 1 c0 R\n"

// FuzzReplay sends arbitrary query strings and small arbitrary bodies to
// /v1/replay on a live server. Every input is answered 200 (a trace that
// replays), 400 (a bad parameter or trace) or 503 (every sync slot
// busy): never a 500 and never a panic.
func FuzzReplay(f *testing.F) {
	for _, seed := range []struct{ query, body string }{
		{"design=Baseline", "0 1 40 R\n"},
		{"design=HYBRID2&name=t&mlp=2&window=16&scale=16&nm_ratio16=2&seed=3", "0 12 1000 R\n1 3 0x2040 W\n0 7 10c0 r\n"},
		{"design=HYBRID2", largeGapTrace},
		{"design=MPOD", largeGapTrace},
		{"design=LGM&mlp=64", largeGapTrace},
		{"design=Baseline&window=100000000", "0 1 40 R\n"},
		{"design=Baseline&mlp=0", "0 1 40 R\n"},
		{"design=Baseline&mlp=65", "0 1 40 R\n"},
		{"design=Baseline", ""},
		{"design=NOSUCH", "0 1 40 R\n"},
		{"design=Baseline&scale=-1", "0 1 40 R\n"},
		{"design=Baseline", "HMT\x01\x00\x01\x40"},
		{"", ""},
	} {
		f.Add(seed.query, []byte(seed.body))
	}
	s, err := New(Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Shutdown(context.Background()) })
	h := s.Handler()
	f.Fuzz(func(t *testing.T, query string, body []byte) {
		if len(body) > 4096 {
			return
		}
		req := httptest.NewRequest("POST", "/v1/replay", bytes.NewReader(body))
		req.URL.RawQuery = query
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		switch w.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusServiceUnavailable:
		default:
			t.Errorf("POST /v1/replay?%s %q: status %d, want 200, 400 or 503: %s", query, body, w.Code, w.Body)
		}
	})
}
