package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hybridmem/internal/api"
	"hybridmem/internal/atomicfile"
)

// Job lifecycle: submitted requests enter a bounded queue and are
// executed by a fixed worker pool. Job IDs are the request's content
// fingerprint, so submitting identical work twice yields the same job —
// the queue deduplicates exactly like the result cache deduplicates
// completed work.
const (
	jobQueued  = "queued"
	jobRunning = "running"
	jobDone    = "done"
	jobFailed  = "failed"
)

var (
	errDraining  = errors.New("server is draining; not accepting new jobs")
	errQueueFull = errors.New("job queue is full")
)

// job is one asynchronous unit of work (a sweep or an exploration).
type job struct {
	ID   string
	Kind string // "sweep" | "explore"

	sweep   *sweepRequest
	explore *exploreRequest

	// A job record holds state, never a result: a settled job's
	// documents live only in the result store, under its ID (and
	// seriesKey of its ID for a sampled sweep).
	mu       sync.Mutex
	state    string
	errMsg   string
	progress json.RawMessage          // latest progress report
	subs     map[chan []byte]struct{} // SSE subscribers, framed events
	created  time.Time
	started  time.Time
	finished time.Time

	// A running sampled sweep's series slots, one per run, filled in as
	// runs settle so a mid-sweep series fetch sees a partial document.
	// finish clears them.
	seriesEntries []api.SweepSeriesEntry
}

func newJob(id, kind string) *job {
	return &job{
		ID:      id,
		Kind:    kind,
		state:   jobQueued,
		subs:    make(map[chan []byte]struct{}),
		created: time.Now(),
	}
}

// jobStatus is the wire form of a job's state.
type jobStatus struct {
	JobID    string          `json:"job_id"`
	Kind     string          `json:"kind"`
	State    string          `json:"state"`
	Error    string          `json:"error,omitempty"`
	Progress json.RawMessage `json:"progress,omitempty"`
	Created  time.Time       `json:"created"`
	Started  *time.Time      `json:"started,omitempty"`
	Finished *time.Time      `json:"finished,omitempty"`
}

// status reports the job's state and, for a failed job, its error.
func (j *job) status() (state, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.errMsg
}

func (j *job) snapshot() jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := jobStatus{
		JobID:    j.ID,
		Kind:     j.Kind,
		State:    j.state,
		Error:    j.errMsg,
		Progress: j.progress,
		Created:  j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// sseFrame renders one server-sent event.
func sseFrame(event string, data []byte) []byte {
	var b strings.Builder
	b.WriteString("event: ")
	b.WriteString(event)
	b.WriteString("\ndata: ")
	b.Write(data)
	b.WriteString("\n\n")
	return []byte(b.String())
}

// subscribe registers an SSE listener. The returned backlog replays the
// job's latest progress (if any); for a settled job the backlog carries
// the terminal event and the channel comes back closed, so late
// subscribers see the outcome without waiting.
func (j *job) subscribe() (ch chan []byte, backlog [][]byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	ch = make(chan []byte, 16)
	if j.progress != nil {
		backlog = append(backlog, sseFrame("progress", j.progress))
	}
	if j.state == jobDone || j.state == jobFailed {
		backlog = append(backlog, j.terminalFrameLocked())
		close(ch)
		return ch, backlog
	}
	j.subs[ch] = struct{}{}
	return ch, backlog
}

func (j *job) unsubscribe(ch chan []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.subs[ch]; ok {
		delete(j.subs, ch)
		close(ch)
	}
}

// publishProgress records and broadcasts one progress report. A slow
// subscriber's full buffer drops the event rather than stalling the job:
// progress is a monotone summary, not a log, and the next event
// supersedes the lost one.
func (j *job) publishProgress(data json.RawMessage) {
	frame := sseFrame("progress", data)
	j.mu.Lock()
	defer j.mu.Unlock()
	j.progress = data
	for ch := range j.subs {
		select {
		case ch <- frame:
		default:
		}
	}
}

// publishEvent broadcasts one non-progress SSE frame (e.g. a live
// "epoch" event) to current subscribers. Unlike progress it is not
// retained for replay: epoch events form a stream, not a state
// summary, and a late subscriber reads the series endpoint instead.
func (j *job) publishEvent(event string, data json.RawMessage) {
	frame := sseFrame(event, data)
	j.mu.Lock()
	defer j.mu.Unlock()
	for ch := range j.subs {
		select {
		case ch <- frame:
		default:
		}
	}
}

// initSeries installs one series slot per run of a telemetry-enabled
// sweep, in SweepSpecsByName order. Until a run settles its slot holds
// an empty (but well-formed) series.
func (j *job) initSeries(entries []api.SweepSeriesEntry) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seriesEntries = entries
}

// setSeries attaches one settled run's series to its slot.
func (j *job) setSeries(i int, s api.Series) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if i >= 0 && i < len(j.seriesEntries) {
		j.seriesEntries[i].Series = s
	}
}

// seriesDoc returns the series document of a running sampled sweep's
// slots; ok is false before the sweep samples and once it has settled.
// The slots are copied under the lock and encoded outside it, so live
// epoch events never wait on an encoding.
func (j *job) seriesDoc(partial bool) (doc api.SweepSeries, ok bool) {
	j.mu.Lock()
	entries := slices.Clone(j.seriesEntries)
	j.mu.Unlock()
	return api.SweepSeries{
		Schema:       api.SchemaVersion,
		SeriesSchema: api.SeriesSchemaVersion,
		Partial:      partial,
		Entries:      entries,
	}, entries != nil
}

// start transitions the job to running.
func (j *job) start() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = jobRunning
	j.started = time.Now()
}

// finish settles the job, broadcasts the terminal event and closes every
// subscriber. A done job's documents are already in the store.
func (j *job) finish(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	j.seriesEntries = nil
	if err != nil {
		j.state = jobFailed
		j.errMsg = err.Error()
	} else {
		j.state = jobDone
	}
	frame := j.terminalFrameLocked()
	for ch := range j.subs {
		select {
		case ch <- frame:
		default:
			// The buffer is full of stale progress frames. Unlike
			// progress, the terminal event is not superseded by anything:
			// evict one queued frame to guarantee it lands before close.
			select {
			case <-ch:
			default:
			}
			select {
			case ch <- frame:
			default:
			}
		}
		close(ch)
		delete(j.subs, ch)
	}
}

// terminalFrameLocked renders the final SSE event; j.mu must be held.
func (j *job) terminalFrameLocked() []byte {
	data, _ := json.Marshal(struct {
		State string `json:"state"`
		Error string `json:"error,omitempty"`
	}{State: j.state, Error: j.errMsg})
	return sseFrame("done", data)
}

// jobManager owns the bounded queue, the worker pool and the job index.
// The index is bounded too: settled jobs are retired in finish order
// once more than retain of them accumulate, so a long-lived server does
// not grow memory (or state-directory contents) with every sweep it has
// ever served. A retired job's result usually survives in the result
// store — resubmitting it creates a job that settles instantly.
type jobManager struct {
	s       *Server
	mu      sync.Mutex
	byID    map[string]*job
	queue   chan *job
	settled []string // settled job IDs, oldest first
	retain  int
	closed  bool
	wg      sync.WaitGroup
	running atomic.Int64
	ctx     context.Context
	cancel  context.CancelFunc
}

func newJobManager(s *Server, depth, workers, retain int) *jobManager {
	m := &jobManager{
		s:      s,
		byID:   make(map[string]*job),
		queue:  make(chan *job, depth),
		retain: retain,
	}
	m.ctx, m.cancel = context.WithCancel(context.Background())
	for i := 0; i < workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// lookup returns a job by ID.
func (m *jobManager) lookup(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.byID[id]
	return j, ok
}

// submit enqueues a job, deduplicating on its content-addressed ID: a
// resubmission of identical work returns the existing job — queued,
// running or done — without queuing anything new. A stale job is the
// exception: resubmitting it replaces the record and runs the work
// again, so a transient error is not sticky for the life of the
// process, and a document the store evicted is recomputed (the ID is
// the work's fingerprint, so the bytes are the same).
func (m *jobManager) submit(j *job) (*job, error) {
	m.mu.Lock()
	exist := m.byID[j.ID]
	m.mu.Unlock()
	// stale may read the store's files, so it runs with no lock held;
	// the record must still be the one judged once the lock is retaken.
	if exist != nil && !m.s.stale(exist) {
		return exist, nil
	}
	m.mu.Lock()
	if m.byID[j.ID] != exist {
		m.mu.Unlock()
		return m.submit(j)
	}
	if m.closed || m.s.draining.Load() {
		m.mu.Unlock()
		return nil, errDraining
	}
	select {
	case m.queue <- j:
		// Only a successfully queued replacement displaces a stale
		// job's record — a rejected resubmission must not erase the
		// failure the client may still be inspecting.
		if exist != nil {
			m.settled = slices.DeleteFunc(m.settled, func(id string) bool { return id == j.ID })
		}
		m.byID[j.ID] = j
		m.mu.Unlock()
	default:
		m.mu.Unlock()
		return nil, errQueueFull
	}
	m.s.persistJobSpec(j)
	return j, nil
}

// adopt registers a recovered job (already settled, loaded from the
// state directory) without queueing it.
func (m *jobManager) adopt(j *job) {
	m.mu.Lock()
	m.byID[j.ID] = j
	m.mu.Unlock()
	m.retire(j)
}

// retire folds a settled job into the bounded history, evicting the
// oldest settled jobs — index entry and persisted state both — beyond
// retain. The newest job always survives its own retirement (retain is
// at least 1), so a just-settled result stays fetchable at least once.
func (m *jobManager) retire(j *job) {
	var evicted []string
	m.mu.Lock()
	// A failed job can be displaced by a retry between finish() and this
	// call; retiring the stale record would enqueue its ID for an
	// eviction that then deletes the live retry's index entry and state.
	if m.byID[j.ID] != j {
		m.mu.Unlock()
		return
	}
	m.settled = append(m.settled, j.ID)
	for len(m.settled) > m.retain {
		old := m.settled[0]
		m.settled = m.settled[1:]
		delete(m.byID, old)
		evicted = append(evicted, old)
	}
	m.mu.Unlock()
	for _, id := range evicted {
		m.s.removeJobState(id)
	}
}

func (m *jobManager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.running.Add(1)
		m.s.runJob(m.ctx, j)
		m.running.Add(-1)
		m.retire(j)
	}
}

// drain stops accepting jobs, lets the workers finish everything queued
// and in flight, and returns when the pool is idle. If ctx expires
// first, running jobs are canceled — an exploration flushes its
// checkpoint on cancellation, so a resubmission after restart resumes it
// — and drain waits for the (now unblocked) workers before returning
// the context error.
func (m *jobManager) drain(ctx context.Context) error {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.queue)
	}
	m.mu.Unlock()
	idle := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		m.cancel()
		<-idle
		return ctx.Err()
	}
}

// persistedJob is the on-disk form of a submitted job's request, enough
// to resubmit it after a server restart.
type persistedJob struct {
	Kind    string          `json:"kind"`
	Sweep   *sweepRequest   `json:"sweep,omitempty"`
	Explore *exploreRequest `json:"explore,omitempty"`
}

func (s *Server) statePath(prefix, id string) string {
	return filepath.Join(s.opts.StateDir, prefix+"-"+id+".json")
}

// removeJobState deletes a retired job's persisted spec and checkpoint,
// so the state directory stays bounded alongside the index. Its result
// stays in the store, under the store's own bounds.
func (s *Server) removeJobState(id string) {
	if s.opts.StateDir == "" {
		return
	}
	for _, prefix := range []string{"job", "ckpt"} {
		os.Remove(s.statePath(prefix, id))
	}
}

// seriesStored reports whether the store holds a valid settled series
// document for j, when j is a sampled sweep and needs one.
func (s *Server) seriesStored(j *job) bool {
	if j.sweep == nil || j.sweep.Series == nil {
		return true
	}
	doc, ok := s.store.Peek(seriesKey(j.ID))
	return ok && json.Valid(doc)
}

// stale reports whether a job's record no longer stands for its work:
// the job failed, or it is done and the store no longer holds its
// documents (a memory-only or bounded store can evict them).
func (s *Server) stale(j *job) bool {
	switch state, _ := j.status(); state {
	case jobFailed:
		return true
	case jobDone:
		_, ok := s.store.Peek(j.ID)
		return !ok || !s.seriesStored(j)
	}
	return false
}

// persistJobSpec records a submitted job's request in the state
// directory so a restarted server can pick the work back up. Best
// effort: persistence failures are logged, not fatal — the job still
// runs, it just will not survive a restart.
func (s *Server) persistJobSpec(j *job) {
	if s.opts.StateDir == "" {
		return
	}
	data, err := json.MarshalIndent(persistedJob{Kind: j.Kind, Sweep: j.sweep, Explore: j.explore}, "", "  ")
	if err == nil {
		err = atomicfile.Write(s.statePath("job", j.ID), data)
	}
	if err != nil {
		s.opts.Log.Warn("serve: persist job spec failed", "job", j.ID, "err", err)
	}
}

// recoverJobs replays the state directory on startup: jobs whose result
// (and series, for a sampled sweep) the store holds are adopted as
// settled; the rest are resubmitted — an exploration that left a
// checkpoint resumes from it rather than starting over.
func (s *Server) recoverJobs() error {
	dir := s.opts.StateDir
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("serve: state dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("serve: state dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "job-") || !strings.HasSuffix(name, ".json") {
			continue
		}
		id := strings.TrimSuffix(strings.TrimPrefix(name, "job-"), ".json")
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			s.opts.Log.Warn("serve: recover job failed", "file", name, "err", err)
			continue
		}
		var spec persistedJob
		if err := json.Unmarshal(data, &spec); err != nil {
			s.opts.Log.Warn("serve: recover job failed", "file", name, "err", err)
			continue
		}
		// A spec whose kind and payload disagree (schema skew, an edited
		// file) must not reach a worker: execSweep/execExplore would
		// dereference a nil request.
		ok := (spec.Kind == "sweep" && spec.Sweep != nil) ||
			(spec.Kind == "explore" && spec.Explore != nil)
		if !ok {
			s.opts.Log.Warn("serve: recovered job spec is malformed", "file", name, "kind", spec.Kind)
			continue
		}
		j := newJob(id, spec.Kind)
		j.sweep, j.explore = spec.Sweep, spec.Explore
		// Adopt a stored result only if it parses (entries are
		// checksummed, but trust nothing that settles a job); anything
		// else falls through to a re-run.
		if result, ok := s.store.Peek(id); ok && json.Valid(result) && s.seriesStored(j) {
			j.state = jobDone
			j.finished = time.Now()
			s.jobs.adopt(j)
			continue
		}
		if _, err := s.jobs.submit(j); err != nil {
			s.opts.Log.Warn("serve: resubmit recovered job failed", "job", id, "err", err)
		}
	}
	return nil
}
