package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hybridmem"
	"hybridmem/internal/api"
	"hybridmem/internal/config"
)

// serveDesigns × serveWorkloads are serve-mixed's 16 warm keys.
var (
	serveDesigns   = []string{"Baseline", "DFC", "HYBRID2", "MPOD"}
	serveWorkloads = []string{"lbm", "mcf", "xz", "namd"}
)

// serveClients is the closed loop's width: two clients, each sending its
// next request when the previous one has completed.
const serveClients = 2

type reqClass int

const (
	warmReq reqClass = iota // POST /v1/run of a pre-warmed key
	coldReq                 // POST /v1/run with a fresh seed
	jobReq                  // POST /v1/sweep, await its events, GET the result
)

var classNames = [...]string{"warm", "cold", "job"}

type serveReq struct {
	class   reqClass
	designs []string
	wls     []string
	seed    uint64
	sample  bool // checked against the library after timing
}

func (r serveReq) String() string {
	return fmt.Sprintf("%s %s %s seed=%d", classNames[r.class], strings.Join(r.designs, ","), strings.Join(r.wls, ","), r.seed)
}

type served struct {
	req  serveReq
	body []byte
}

type serveBench struct {
	e      env
	dir    string
	cancel context.CancelFunc
	done   chan error
	url    string
	client *http.Client

	warmBody map[string][]byte // pre-warm response of each warm key

	mu         sync.Mutex
	transcript []string
	sampled    []served
	classLat   [3][]float64
	busy       time.Duration // spent in batches, for the request rate
}

func setupServe(e env) (bench, error) {
	dir, err := os.MkdirTemp(e.tmpRoot, "serve-")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	b := &serveBench{
		e: e, dir: dir, cancel: cancel, done: make(chan error, 1),
		client: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients},
		},
		warmBody: map[string][]byte{},
	}
	addr := make(chan string, 1)
	go func() {
		b.done <- hybridmem.Serve(ctx, hybridmem.ServeOptions{
			Addr:        "127.0.0.1:0",
			StoreDir:    filepath.Join(dir, "store"),
			StateDir:    filepath.Join(dir, "state"),
			Parallelism: 1,
			OnListen:    func(a string) { addr <- a },
		})
	}()
	select {
	case a := <-addr:
		b.url = "http://" + a
	case err := <-b.done:
		b.done <- err
		b.close()
		return nil, fmt.Errorf("serve: %v", err)
	}
	for _, d := range serveDesigns {
		for _, w := range serveWorkloads {
			r := serveReq{class: warmReq, designs: []string{d}, wls: []string{w}, seed: e.seed}
			body, err := b.do(nil, -1, r)
			if err != nil {
				b.close()
				return nil, fmt.Errorf("pre-warm %s/%s: %w", d, w, err)
			}
			b.warmBody[d+"/"+w] = body
		}
	}
	return b, nil
}

func (b *serveBench) config(seed uint64) api.Config {
	return api.Config{Scale: config.DefaultScale, NMRatio16: 1, InstrPerCore: b.e.sz.serveInstr, Seed: seed}
}

// batch draws iteration iter's requests from the seed: a fixed count per
// class in a seeded order, fresh seeds for cold requests and jobs, and
// a seeded 1-in-20 sample of those — plus the warm-up batch's first of
// each — for the post-timing check.
func (b *serveBench) batch(iter int) []serveReq {
	rng := rand.New(rand.NewPCG(b.e.seed, uint64(1000+iter)))
	var reqs []serveReq
	for class, n := range b.e.sz.serveMix {
		for i := 0; i < n; i++ {
			r := serveReq{class: reqClass(class)}
			switch r.class {
			case jobReq:
				d := rng.Perm(len(serveDesigns))
				w := rng.Perm(len(serveWorkloads))
				r.designs = []string{serveDesigns[d[0]], serveDesigns[d[1]]}
				r.wls = []string{serveWorkloads[w[0]], serveWorkloads[w[1]]}
			default:
				r.designs = []string{serveDesigns[rng.IntN(len(serveDesigns))]}
				r.wls = []string{serveWorkloads[rng.IntN(len(serveWorkloads))]}
			}
			r.seed = b.e.seed
			if r.class != warmReq {
				// Unique per (run seed, iteration, position): never cached.
				r.seed = b.e.seed<<32 | uint64(iter+1)<<12 | uint64(len(reqs))
				r.sample = rng.IntN(20) == 0 || (iter == 0 && i == 0)
			}
			reqs = append(reqs, r)
		}
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

func (b *serveBench) iterate(tr *tracer, parent, iter int) iterOut {
	reqs := b.batch(iter)
	start := time.Now()
	var o iterOut
	lat := make([]float64, len(reqs))
	errs := make([]error, len(reqs))
	bodies := make([][]byte, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				start := time.Now()
				bodies[i], errs[i] = b.do(tr, parent, reqs[i])
				lat[i] = msSince(start)
			}
		}()
	}
	wg.Wait()

	b.mu.Lock()
	defer b.mu.Unlock()
	b.busy += time.Since(start)
	for i, r := range reqs {
		o.attempted++
		o.ops = append(o.ops, lat[i])
		b.classLat[r.class] = append(b.classLat[r.class], lat[i])
		switch {
		case errs[i] != nil:
			o.failure("%v: %v", r, errs[i])
			continue
		case r.class == warmReq && !bytes.Equal(bodies[i], b.warmBody[r.designs[0]+"/"+r.wls[0]]):
			o.failure("%v: response differs from the first one", r)
		case r.class == coldReq:
			o.minstr += minstr(1, b.e.sz.serveInstr)
		case r.class == jobReq:
			o.minstr += minstr(len(r.designs)*len(r.wls), b.e.sz.serveInstr)
		}
		if r.sample {
			b.sampled = append(b.sampled, served{r, bodies[i]})
		}
		if iter < b.e.sz.goldenBatches {
			b.transcript = append(b.transcript, fmt.Sprintf("%d %03d %v %s", iter, i, r, digestOf(bodies[i])))
		}
	}
	return o
}

// do sends one request and returns the response document: the run
// document, or a job's result document.
func (b *serveBench) do(tr *tracer, parent int, r serveReq) ([]byte, error) {
	sp := tr.start("serve."+classNames[r.class], parent)
	defer tr.end(sp, 1)
	if r.class != jobReq {
		body := mustJSON(map[string]any{"design": r.designs[0], "workload": r.wls[0], "config": b.config(r.seed)})
		return b.call("POST", "/v1/run", body, http.StatusOK)
	}
	body := mustJSON(map[string]any{"designs": r.designs, "workloads": r.wls, "config": b.config(r.seed)})
	data, err := b.call("POST", "/v1/sweep", body, http.StatusAccepted)
	if err != nil {
		return nil, err
	}
	var sub struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(data, &sub); err != nil || sub.JobID == "" {
		return nil, fmt.Errorf("submit: bad response %q", data)
	}
	events, err := b.call("GET", "/v1/jobs/"+sub.JobID+"/events", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	if !bytes.Contains(events, []byte("event: done\ndata: {\"state\":\"done\"}")) {
		return nil, fmt.Errorf("job %s: no successful terminal event in %q", sub.JobID, events)
	}
	return b.call("GET", "/v1/jobs/"+sub.JobID+"/result", nil, http.StatusOK)
}

func (b *serveBench) call(method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, b.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// wire maps a library result to its wire form, field for field.
func wire(r hybridmem.Result) api.Result {
	return api.Result{
		Workload: r.Workload, Design: r.Design, Cycles: r.Cycles, Instructions: r.Instructions,
		IPC: r.IPC, MPKI: r.MPKI, Requests: r.Requests, ServedNMFrac: r.ServedNMFrac,
		NMTrafficBytes: r.NMTrafficBytes, FMTrafficBytes: r.FMTrafficBytes, MetaNMBytes: r.MetaNMBytes,
		Migrations: r.Migrations, EnergyNanoJ: r.EnergyNanoJ,
	}
}

// finish recomputes every sampled cold request and job through the
// library and compares the served documents with the results.
func (b *serveBench) finish(iterOut) (string, []check, map[string]any) {
	c := check{Name: "sampled cold and job responses equal the library", OK: true}
	for _, s := range b.sampled {
		cfg := runConfig(b.e.sz.serveInstr, s.req.seed)
		var want []api.Result
		var got []api.Result
		if s.req.class == coldReq {
			r, err := hybridmem.Run(s.req.designs[0], s.req.wls[0], cfg)
			if err != nil {
				c.OK, c.Detail = false, err.Error()
				break
			}
			want = []api.Result{wire(r)}
			var doc api.Run
			if err := json.Unmarshal(s.body, &doc); err == nil {
				got = []api.Result{doc.Result}
			}
		} else {
			rs, err := hybridmem.RunAll(cfg, hybridmem.SweepOptions{Parallelism: 1, Designs: s.req.designs, Workloads: s.req.wls})
			if err != nil {
				c.OK, c.Detail = false, err.Error()
				break
			}
			for _, r := range rs {
				want = append(want, wire(r))
			}
			var doc api.Sweep
			if err := json.Unmarshal(s.body, &doc); err == nil {
				got = doc.Results
			}
		}
		if !slices.Equal(got, want) {
			c.OK, c.Detail = false, fmt.Sprintf("%v: served %v, library %v", s.req, got, want)
			break
		}
	}
	if len(b.sampled) == 0 {
		c.OK, c.Detail = false, "nothing sampled"
	}
	info := map[string]any{"sampled": len(b.sampled)}
	var n int
	for class, lat := range b.classLat {
		n += len(lat)
		name := classNames[class]
		info[name+"_p50_ms"] = median(lat)
		info[name+"_p99_ms"] = percentile(lat, 0.99)
		info[name+"_n"] = len(lat)
	}
	info["req_per_s"] = float64(n) / b.busy.Seconds()
	sort.Strings(b.transcript)
	return digestOf([]byte(strings.Join(b.transcript, "\n"))), []check{c}, info
}

func (b *serveBench) close() {
	b.cancel()
	if err := <-b.done; err != nil {
		fmt.Fprintln(os.Stderr, "bench: serve:", err)
	}
	b.client.CloseIdleConnections()
	os.RemoveAll(b.dir)
}
