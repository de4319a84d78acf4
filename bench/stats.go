package main

import (
	"bufio"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// summary is the noise record of one metric within a run: how many
// samples it was computed from and their quartiles.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// percentile interpolates linearly between the closest ranks of the
// sorted samples; p is in [0, 1].
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func summarize(xs []float64) summary {
	return summary{N: len(xs), Median: median(xs), Q1: percentile(xs, 0.25), Q3: percentile(xs, 0.75)}
}

// totalAllocMB is the Go heap's cumulative allocation in MB (10^6 bytes).
func totalAllocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / 1e6
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) in
// MB (10^6 bytes); 0 where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// host records where a run was measured.
type host struct {
	CPU         string `json:"cpu"`
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	GitDescribe string `json:"git_describe"`
}

func hostInfo() host {
	h := host{
		CPU:         "unknown",
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		GitDescribe: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// git must not search above the working directory: outside a
	// repository (a source export) the description is simply unknown.
	if wd, err := os.Getwd(); err == nil {
		cmd := exec.Command("git", "describe", "--always", "--dirty")
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		if out, err := cmd.Output(); err == nil {
			h.GitDescribe = strings.TrimSpace(string(out))
		}
	}
	return h
}

// span is one timed call made by the benchmark into a layer of the
// program. Times are nanoseconds since the tracer started.
type span struct {
	Name      string `json:"name"`
	Start     int64  `json:"start_ns"`
	End       int64  `json:"end_ns"`
	Parent    int    `json:"parent"` // index into the span list, -1 for a root
	Workload  string `json:"workload"`
	Iteration int    `json:"iteration"`
	Count     int64  `json:"count,omitempty"` // work items the call covered
}

// tracer keeps the spans of a traced run in memory until it exits. A nil
// tracer records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu        sync.Mutex
	epoch     time.Time
	workload  string
	iteration int
	spans     []span
}

func newTracer(workload string) *tracer {
	return &tracer{epoch: time.Now(), workload: workload}
}

// start opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Workload: t.workload, Iteration: t.iteration})
	return len(t.spans) - 1
}

// end closes span id, recording how many work items it covered.
func (t *tracer) end(id int, count int64) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.spans[id].Count = count
}

func (t *tracer) setIteration(i int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.iteration = i
	t.mu.Unlock()
}

// dur returns span id's duration in seconds.
func (t *tracer) dur(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id]
	return float64(s.End-s.Start) / 1e9
}

// layerTime is the aggregate of every span sharing a name.
type layerTime struct {
	Name  string
	Calls int
	Total float64 // seconds
	Self  float64 // seconds not covered by child spans
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the union of its children's intervals, so concurrent children
// (the serve workload's two clients) are not counted twice.
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	byName := map[string]*layerTime{}
	var order []string
	for i, s := range t.spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
			order = append(order, s.Name)
		}
		d := s.End - s.Start
		lt.Calls++
		lt.Total += float64(d) / 1e9
		lt.Self += float64(d-covered(children[i])) / 1e9
	}
	out := make([]layerTime, len(order))
	for i, n := range order {
		out[i] = *byName[n]
	}
	return out
}

// covered returns the total length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		if open && x[0] <= curE {
			curE = max(curE, x[1])
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = x[0], x[1], true
	}
	if open {
		total += curE - curS
	}
	return total
}

func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	data, err := json.MarshalIndent(t.spans, "", " ")
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
