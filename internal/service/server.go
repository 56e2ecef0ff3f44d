package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dvsim/internal/buildinfo"
	"dvsim/internal/core"
	"dvsim/internal/manifest"
	"dvsim/internal/metrics"
	"dvsim/internal/report"
	"dvsim/internal/sweep"
)

// Config sizes a Server.
type Config struct {
	// Workers bounds concurrent simulations; ≤ 0 selects GOMAXPROCS.
	Workers int
	// QueueDepth bounds the backlog; ≤ 0 selects 64. A full queue
	// rejects submissions with HTTP 503 instead of buffering forever.
	QueueDepth int
	// CacheDir persists the run cache across restarts; "" keeps it in
	// memory only.
	CacheDir string
	// ScenarioDir is the root for by-name fault-scenario and
	// assertion-spec references in submissions; "" disallows them.
	ScenarioDir string
}

// Server executes dvsim runs behind HTTP. Construct with New, mount
// Handler on an http.Server, and Close to drain.
type Server struct {
	cfg   Config
	cache *Cache
	q     *queue
	start time.Time

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string        // job IDs in submission order
	inflight map[string]*job // cache key → queued/running job
	nextID   int
	closed   bool

	wg sync.WaitGroup

	// Request accounting for /api/v1/stats.
	requests      atomic.Uint64
	streamedBytes atomic.Uint64
	runsDone      atomic.Uint64
	runsFailed    atomic.Uint64
	runsCancelled atomic.Uint64
}

// New opens the cache and starts the worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	cache, err := NewCache(cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		cache:    cache,
		q:        newQueue(cfg.QueueDepth),
		start:    time.Now(),
		jobs:     make(map[string]*job),
		inflight: make(map[string]*job),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		//lint:allow nakedgo server worker pool; lifecycle is owned by Server.Close, which closes the queue and waits on s.wg
		go s.worker()
	}
	return s, nil
}

// Close drains the server: no new submissions, queued and running jobs
// finish, then the workers exit. Call after http.Server.Shutdown so
// in-flight responses complete first.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.q.close()
	s.wg.Wait()
}

// Cache exposes the store (the load-test harness reads its stats).
func (s *Server) Cache() *Cache { return s.cache }

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.q.pop()
		if !ok {
			return
		}
		s.execute(j)
	}
}

func (s *Server) execute(j *job) {
	j.setState(StateRunning)
	err := j.run(j.ctx, j)
	if err == nil {
		// Store before clearing in-flight, so every later lookup finds
		// either the running job or the cached bytes, never a gap.
		err = s.cache.put(j.key, j.stream.parts())
	}
	s.mu.Lock()
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	s.mu.Unlock()
	switch {
	case err == nil:
		s.runsDone.Add(1)
	case errors.Is(err, context.Canceled):
		s.runsCancelled.Add(1)
	default:
		s.runsFailed.Add(1)
	}
	j.finish(err)
	j.cancel()
}

// lookup is the cache-or-submit decision: stored bytes if the artifact
// exists, the in-flight job to follow if an identical run is already
// going (coalesced), or a freshly queued job.
func (s *Server) lookup(res *resolved) (cached []byte, j *job, coalesced bool, err error) {
	if b, ok := s.cache.Get(res.key); ok {
		return b, nil, false, nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, nil, false, errQueueClosed
	}
	if running, ok := s.inflight[res.key]; ok {
		s.mu.Unlock()
		s.cache.Coalesced()
		return nil, running, true, nil
	}
	j = s.newJobLocked(res)
	j.stream = newStream()
	j.run = func(ctx context.Context, j *job) error {
		if res.kind == "sweep" {
			return s.runSweep(ctx, j, res)
		}
		return s.runTelemetry(ctx, j, res)
	}
	s.inflight[res.key] = j
	s.mu.Unlock()
	if err := s.q.push(j); err != nil {
		s.mu.Lock()
		delete(s.inflight, res.key)
		s.mu.Unlock()
		j.stream.close()
		j.finish(err)
		j.cancel()
		return nil, nil, false, err
	}
	return nil, j, false, nil
}

// newJobLocked registers a job for a resolved submission; s.mu held.
// The caller gives a job it queues a stream and a run.
func (s *Server) newJobLocked(res *resolved) *job {
	s.nextID++
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:       fmt.Sprintf("r%06d", s.nextID),
		key:      res.key,
		kind:     res.kind,
		desc:     res.desc,
		priority: res.priority,
		ctx:      ctx,
		cancel:   cancel,
		state:    StateQueued,
		done:     make(chan struct{}),
	}
	if res.kind == "sweep" {
		j.lines = len(res.exps)
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	return j
}

// runTelemetry produces a single run's JSONL artifact into the job's
// stream as the simulation advances, so followers see telemetry live.
func (s *Server) runTelemetry(ctx context.Context, j *job, res *resolved) error {
	defer j.stream.close()
	_, err := core.Simulate(ctx, res.spec, core.Sinks{Log: j.stream, Telemetry: true})
	return err
}

// errNotStored reports a finished job whose artifact the cache no
// longer finds (its file was removed from under the server).
var errNotStored = errors.New("artifact is no longer stored")

// send writes job j's artifact to w: live from the job's stream while
// it holds one, else — the job is done — replayed from the cache. It
// returns the number of bytes written.
func (s *Server) send(w io.Writer, j *job) (int64, error) {
	if st := j.live(); st != nil {
		return st.follow(w)
	}
	b, ok := s.cache.replay(j.key)
	if !ok {
		return 0, errNotStored
	}
	n, err := w.Write(b)
	return int64(n), err
}

// runSweep produces a manifest sweep's aggregated CSV. Each expanded
// line has its own cache key: lines already stored replay as rows,
// missing lines simulate on an inner all-core pool and are stored
// individually — a sweep sharing lines with past submissions only pays
// for the new ones.
func (s *Server) runSweep(ctx context.Context, j *job, res *resolved) error {
	defer j.stream.close()
	rows := make([]manifest.Row, len(res.exps))
	keys := make([]string, len(res.exps))
	var missIdx []int
	hits := 0
	for i, e := range res.exps {
		k, err := e.KeySpec(manifest.OutputOutcome, 0).Key()
		if err != nil {
			return err
		}
		keys[i] = k
		b, ok := s.cache.Get(k)
		if !ok {
			missIdx = append(missIdx, i)
			continue
		}
		var out core.Outcome
		if err := json.Unmarshal(b, &out); err != nil {
			// A corrupt entry re-simulates rather than failing the sweep.
			missIdx = append(missIdx, i)
			continue
		}
		rows[i] = manifest.RowOf(manifest.Result{Experiment: e, Outcome: out})
		hits++
	}
	j.mu.Lock()
	j.cacheHits = hits
	j.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	type lineOut struct {
		out     core.Outcome
		skipped bool
	}
	outs := sweep.Run(missIdx, 0, func(i int) lineOut {
		// Cancellation is line-granular: lines not yet started are
		// skipped, the ones running finish (a kernel run is seconds,
		// not minutes).
		if ctx.Err() != nil {
			return lineOut{skipped: true}
		}
		return lineOut{out: res.exps[i].Run()}
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	for n, i := range missIdx {
		if outs[n].skipped {
			return context.Canceled
		}
		b, err := json.Marshal(outs[n].out)
		if err != nil {
			return err
		}
		if err := s.cache.Put(keys[i], b); err != nil {
			return err
		}
		rows[i] = manifest.RowOf(manifest.Result{Experiment: res.exps[i], Outcome: outs[n].out})
	}
	j.stream.Write([]byte(manifest.RowsCSV(rows)))
	return nil
}

// hashBytes is the store's address function for non-KeySpec material
// (whole-sweep artifacts).
func hashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Handler returns the API surface.
//
//	GET    /healthz                   liveness
//	GET    /api/v1/version            engine/build identification
//	POST   /api/v1/submit             synchronous run: stream the artifact
//	POST   /api/v1/runs               asynchronous run: 202 + job status
//	GET    /api/v1/runs               list jobs
//	GET    /api/v1/runs/{id}          one job's status
//	GET    /api/v1/runs/{id}/stream   follow the artifact (live during the run)
//	GET    /api/v1/runs/{id}/result   completed artifact bytes
//	DELETE /api/v1/runs/{id}          cancel
//	GET    /api/v1/cache/stats        content-addressed store counters
//	GET    /api/v1/stats              server stats (?format=csv via report.MetricsCSV)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	count := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			s.requests.Add(1)
			h(w, r)
		}
	}
	mux.HandleFunc("GET /healthz", count(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	}))
	mux.HandleFunc("GET /api/v1/version", count(s.handleVersion))
	mux.HandleFunc("POST /api/v1/submit", count(s.handleSubmit))
	mux.HandleFunc("POST /api/v1/runs", count(s.handleRunsSubmit))
	mux.HandleFunc("GET /api/v1/runs", count(s.handleRunsList))
	mux.HandleFunc("GET /api/v1/runs/{id}", count(s.handleRunStatus))
	mux.HandleFunc("GET /api/v1/runs/{id}/stream", count(s.handleRunStream))
	mux.HandleFunc("GET /api/v1/runs/{id}/result", count(s.handleRunResult))
	mux.HandleFunc("DELETE /api/v1/runs/{id}", count(s.handleRunCancel))
	mux.HandleFunc("GET /api/v1/cache/stats", count(s.handleCacheStats))
	mux.HandleFunc("GET /api/v1/stats", count(s.handleStats))
	return mux
}

// VersionInfo identifies the serving binary; Engine is the cache-key
// component, so a client can predict whether its local keys agree.
type VersionInfo struct {
	Engine   string `json:"engine"`
	Version  string `json:"version"`
	Revision string `json:"revision,omitempty"`
	Go       string `json:"go"`
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, VersionInfo{
		Engine:   buildinfo.EngineVersion,
		Version:  buildinfo.Version(),
		Revision: buildinfo.Revision(),
		Go:       runtime.Version(),
	})
}

// readSubmission decodes the request body: a JSON submission envelope,
// or — for any non-JSON content type — raw runfile text, so
// `curl --data-binary @sweep.toml` submits a manifest directly.
func readSubmission(r *http.Request) (Submission, error) {
	var sub Submission
	ct := r.Header.Get("Content-Type")
	if ct != "" && ct != "application/json" {
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(http.MaxBytesReader(nil, r.Body, 4<<20)); err != nil {
			return sub, err
		}
		sub.Manifest = buf.String()
		sub.Priority = r.URL.Query().Get("priority")
		return sub, nil
	}
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 4<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sub); err != nil {
		return sub, fmt.Errorf("parsing submission: %w", err)
	}
	return sub, nil
}

// handleSubmit is the synchronous entry: resolve, then stream the
// artifact — stored bytes on a hit, live output on a miss. The
// X-Dvsim-Key header carries the cache key, X-Dvsim-Cache whether this
// request hit, missed or coalesced, and the X-Dvsim-Status trailer the
// final verdict of a streamed run.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	sub, err := readSubmission(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.resolve(sub)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	cached, j, coalesced, err := s.lookup(res)
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, err)
		return
	}
	w.Header().Set("X-Dvsim-Key", res.key)
	w.Header().Set("Content-Type", contentType(res.kind))
	if cached != nil {
		w.Header().Set("X-Dvsim-Cache", "hit")
		w.Write(cached)
		s.streamedBytes.Add(uint64(len(cached)))
		return
	}
	verdict := "miss"
	if coalesced {
		verdict = "coalesced"
	}
	w.Header().Set("X-Dvsim-Cache", verdict)
	w.Header().Set("Trailer", "X-Dvsim-Status")
	n, err := s.send(w, j)
	s.streamedBytes.Add(uint64(n))
	<-j.done
	st := j.snapshot()
	if st.State != StateDone && n == 0 {
		// The run failed before producing a byte: the response is still
		// unwritten, so report a proper status instead of an empty 200.
		httpError(w, http.StatusInternalServerError, fmt.Errorf("run %s: %s", st.State, st.Error))
		return
	}
	if errors.Is(err, errNotStored) {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("run %s: %w", st.ID, err))
		return
	}
	// Past first byte the status code is spent; the declared trailer
	// carries the verdict of the streamed run.
	if st.State == StateDone {
		w.Header().Set("X-Dvsim-Status", "ok")
	} else {
		w.Header().Set("X-Dvsim-Status", st.State+": "+st.Error)
	}
}

// handleRunsSubmit is the asynchronous entry: 202 with the job to
// poll, or 200 with a synthetic done status when the artifact is
// already stored.
func (s *Server) handleRunsSubmit(w http.ResponseWriter, r *http.Request) {
	sub, err := readSubmission(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.resolve(sub)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	cached, j, _, err := s.lookup(res)
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, err)
		return
	}
	if cached != nil {
		// Register a pre-completed job so the usual status/result
		// endpoints work without special-casing hits client-side; it
		// holds no bytes and replays from the cache.
		s.mu.Lock()
		j = s.newJobLocked(res)
		s.mu.Unlock()
		j.finish(nil)
		j.cancel()
		w.Header().Set("X-Dvsim-Cache", "hit")
		writeJSON(w, http.StatusOK, j.snapshot())
		return
	}
	w.Header().Set("X-Dvsim-Cache", "miss")
	writeJSON(w, http.StatusAccepted, j.snapshot())
}

func (s *Server) handleRunsList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.snapshot()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no such run %q", r.PathValue("id")))
	}
	return j
}

func (s *Server) handleRunStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.job(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.snapshot())
	}
}

// handleRunStream follows the job's artifact as it is produced; on a
// finished job it replays the stored bytes.
func (s *Server) handleRunStream(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	w.Header().Set("X-Dvsim-Key", j.key)
	w.Header().Set("Content-Type", contentType(j.kind))
	n, err := s.send(w, j)
	s.streamedBytes.Add(uint64(n))
	if errors.Is(err, errNotStored) {
		httpError(w, http.StatusGone, fmt.Errorf("run %s: %w", j.id, err))
	}
}

func (s *Server) handleRunResult(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	st := j.snapshot()
	switch st.State {
	case StateDone:
		b, ok := s.cache.replay(j.key)
		if !ok {
			httpError(w, http.StatusGone, fmt.Errorf("run %s: %w", st.ID, errNotStored))
			return
		}
		w.Header().Set("X-Dvsim-Key", j.key)
		w.Header().Set("Content-Type", contentType(j.kind))
		w.Write(b)
		s.streamedBytes.Add(uint64(len(b)))
	case StateQueued, StateRunning:
		httpError(w, http.StatusConflict, fmt.Errorf("run %s is %s", st.ID, st.State))
	default:
		httpError(w, http.StatusGone, fmt.Errorf("run %s %s: %s", st.ID, st.State, st.Error))
	}
}

func (s *Server) handleRunCancel(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	j.cancel()
	writeJSON(w, http.StatusOK, j.snapshot())
}

func (s *Server) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.cache.Stats())
}

// Stats is the server's own accounting.
type Stats struct {
	Engine           string     `json:"engine"`
	UptimeS          float64    `json:"uptime_s"`
	Workers          int        `json:"workers"`
	QueueInteractive int        `json:"queue_interactive"`
	QueueBulk        int        `json:"queue_bulk"`
	Requests         uint64     `json:"requests"`
	StreamedBytes    uint64     `json:"streamed_bytes"`
	RunsDone         uint64     `json:"runs_done"`
	RunsFailed       uint64     `json:"runs_failed"`
	RunsCancelled    uint64     `json:"runs_cancelled"`
	Jobs             int        `json:"jobs"`
	Cache            CacheStats `json:"cache"`
}

func (s *Server) stats() Stats {
	qi, qb := s.q.depth()
	s.mu.Lock()
	jobs := len(s.jobs)
	s.mu.Unlock()
	return Stats{
		Engine:           buildinfo.EngineVersion,
		UptimeS:          time.Since(s.start).Seconds(),
		Workers:          s.cfg.Workers,
		QueueInteractive: qi,
		QueueBulk:        qb,
		Requests:         s.requests.Load(),
		StreamedBytes:    s.streamedBytes.Load(),
		RunsDone:         s.runsDone.Load(),
		RunsFailed:       s.runsFailed.Load(),
		RunsCancelled:    s.runsCancelled.Load(),
		Jobs:             jobs,
		Cache:            s.cache.Stats(),
	}
}

// handleStats serves the accounting as JSON, or — with ?format=csv —
// through the repository's metrics pipeline: the counters become a
// metrics.Snapshot rendered by report.MetricsCSV, the same schema
// dvsim -metrics emits for simulations.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.stats()
	if r.URL.Query().Get("format") != "csv" {
		writeJSON(w, http.StatusOK, st)
		return
	}
	snap := metrics.Snapshot{
		Counters: []metrics.CounterValue{
			{Name: "service_cache_coalesced", Value: float64(st.Cache.Coalesced)},
			{Name: "service_cache_hits", Value: float64(st.Cache.Hits)},
			{Name: "service_cache_misses", Value: float64(st.Cache.Misses)},
			{Name: "service_cache_puts", Value: float64(st.Cache.Puts)},
			{Name: "service_requests", Value: float64(st.Requests)},
			{Name: "service_runs_cancelled", Value: float64(st.RunsCancelled)},
			{Name: "service_runs_done", Value: float64(st.RunsDone)},
			{Name: "service_runs_failed", Value: float64(st.RunsFailed)},
			{Name: "service_streamed_bytes", Value: float64(st.StreamedBytes)},
		},
		Gauges: []metrics.GaugeValue{
			{Name: "service_cache_bytes", Value: float64(st.Cache.Bytes)},
			{Name: "service_cache_entries", Value: float64(st.Cache.Entries)},
			{Name: "service_cache_mem_bytes", Value: float64(st.Cache.MemBytes)},
			{Name: "service_jobs", Value: float64(st.Jobs)},
			{Name: "service_queue_bulk", Value: float64(st.QueueBulk)},
			{Name: "service_queue_interactive", Value: float64(st.QueueInteractive)},
			{Name: "service_uptime_s", Value: st.UptimeS},
			{Name: "service_workers", Value: float64(st.Workers)},
		},
	}
	w.Header().Set("Content-Type", "text/csv")
	fmt.Fprint(w, report.MetricsCSV(snap))
}

func contentType(kind string) string {
	if kind == "sweep" {
		return "text/csv"
	}
	return "application/jsonl"
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
