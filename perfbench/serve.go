package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// The serve workload's load comes from one process over two
// connections, one carrying warm hits and one cold misses, so a miss
// streaming for a few hundred milliseconds never holds up a hit on the
// client side. Misses are always seeded arrivals at a fixed rate. Hits
// are too in the open rungs; in the closed rungs the hit lane sends its
// next request as soon as the last is answered, so those rungs measure
// how many hits a second the server answers beside the misses.
const (
	serveWorkers   = "2"
	nominalHitRate = 200.0 // hits per second at the nominal rate
	missRate       = 5.0   // cold misses per second beside the hits
	serveLimit     = time.Second
	serveSetupRuns = 7
	closedRungs    = 8
	hdrSpan        = "X-Perfbench-Span"
	hdrReq         = "X-Perfbench-Req"
)

// rung is one step of the load.
type rung struct {
	name              string
	hitRate, missRate float64 // offered rates; a closed rung has no hit rate
	seconds           float64
	closed            bool
}

// ladder splits a run's budget into rungs. The first sends warm hits
// alone at the nominal rate; hit latency is taken there. The second adds
// cold misses at the nominal rate; miss latency is taken there. The rest
// of the budget is closed rungs with the same misses, each followed by a
// calibration; the hit rate is their median.
func ladder(seconds float64) []rung {
	rungs := []rung{
		{"hits", nominalHitRate, 0, 0.1 * seconds, false},
		{"1x", nominalHitRate, missRate, 0.15 * seconds, false},
	}
	for i := 1; i <= closedRungs; i++ {
		rungs = append(rungs, rung{"closed" + strconv.Itoa(i), 0, missRate, 0.75 * seconds / closedRungs, true})
	}
	return rungs
}

// server is a running dvsimd, or in a traced run the probe's in-process
// server with a CPU profile and request spans.
type server struct {
	cmd    *exec.Cmd
	base   string
	cache  string
	stderr bytes.Buffer
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer starts a server on a fresh cache directory and waits until
// it answers.
func (b *bench) startServer(tag string, traced bool) (*server, error) {
	cache := filepath.Join(b.out, "cache-"+tag)
	if err := os.RemoveAll(cache); err != nil {
		return nil, err
	}
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	s := &server{base: "http://" + addr, cache: cache}
	if traced {
		s.cmd = exec.Command(filepath.Join(b.bin, "probe"), "serve", "-addr", addr, "-cache-dir", cache,
			"-cpuprofile", filepath.Join(b.out, "serve.pprof"), "-spans", filepath.Join(b.out, "server-spans.jsonl"))
	} else {
		s.cmd = exec.Command(filepath.Join(b.bin, "dvsimd"), "-addr", addr, "-workers", serveWorkers, "-cache-dir", cache)
	}
	s.cmd.Dir = b.root
	s.cmd.Stderr = &s.stderr
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	c := &http.Client{Timeout: time.Second}
	for t0 := time.Now(); time.Since(t0) < 20*time.Second; time.Sleep(2 * time.Millisecond) {
		resp, err := c.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
	}
	s.stop()
	return nil, fmt.Errorf("server did not come up: %s", trimErr(s.stderr.String()))
}

// stop drains the server with SIGTERM, deletes its cache directory and
// returns its peak resident memory in KB.
func (s *server) stop() (int64, error) {
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(60 * time.Second):
		s.cmd.Process.Kill()
		err = <-done
	}
	if rerr := os.RemoveAll(s.cache); err == nil {
		err = rerr
	}
	var rss int64
	if s.cmd.ProcessState != nil {
		if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			rss = int64(ru.Maxrss)
		}
	}
	if err != nil {
		return rss, fmt.Errorf("server exit: %v: %s", err, trimErr(s.stderr.String()))
	}
	return rss, nil
}

// client is one connection's HTTP client.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// reply is one answered submission.
type reply struct {
	code    int
	verdict string // X-Dvsim-Cache
	status  string // X-Dvsim-Status trailer of a streamed run
	body    []byte
}

func submit(c *http.Client, base string, sub []byte, span int64, req string, buf *bytes.Buffer) (reply, error) {
	hr, err := http.NewRequest(http.MethodPost, base+"/api/v1/submit", bytes.NewReader(sub))
	if err != nil {
		return reply{}, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if span != 0 {
		hr.Header.Set(hdrSpan, strconv.FormatInt(span, 10))
		hr.Header.Set(hdrReq, req)
	}
	resp, err := c.Do(hr)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return reply{}, err
	}
	return reply{
		code:    resp.StatusCode,
		verdict: resp.Header.Get("X-Dvsim-Cache"),
		status:  resp.Trailer.Get("X-Dvsim-Status"),
		body:    buf.Bytes(),
	}, nil
}

// request is one sent request's measurements.
type request struct {
	rung     int
	miss     bool
	item     int
	due, end time.Time
	late     time.Duration // generator lateness: send time past when it could have sent
	code     int
	status   int
	bytes    int64
	lines    int64
	span     int64
}

func (r request) latency() time.Duration { return r.end.Sub(r.due) }

// session is one serve measurement: a warmed server and its load.
type session struct {
	b       *bench
	srv     *server
	items   []hitItem
	bodies  [][]byte // expected bytes of each hit
	hitSubs [][]byte
	hitC    *http.Client
	missC   *http.Client
	starts  []time.Time // each rung's start
	closed  []bool      // whether each rung is closed
	reqs    []request
	mu      sync.Mutex
	// closedHits draws the closed rungs' hits. Only the hit lane uses it.
	closedHits rng
	rungSpan   int64
	// echo, when set, is calibrated after every rung.
	echo    *echo
	echoErr error
	// Cache counters read before the server stopped.
	cacheHits, cacheMisses uint64
}

// warm starts a server and stores the working set in its cache, checking
// every artifact as it is computed.
func (b *bench) warm(tag string, traced bool) (*session, error) {
	tree, err := os.ReadFile(b.path(manifestPath("tree_scaling")))
	if err != nil {
		return nil, err
	}
	s := &session{b: b, items: hitSet(string(tree)), hitC: newClient(), missC: newClient()}
	if s.srv, err = b.startServer(tag, traced); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	for _, it := range s.items {
		sub, _ := json.Marshal(it.Sub)
		r, err := submit(s.hitC, s.srv.base, sub, 0, "", &buf)
		if err != nil {
			s.srv.stop()
			return nil, fmt.Errorf("warming %s: %w", it.Name, err)
		}
		body := append([]byte(nil), r.body...)
		want := b.ref.Hits[it.Name]
		if it.Golden != "" {
			g, err := os.ReadFile(b.path(it.Golden))
			if err != nil {
				s.srv.stop()
				return nil, err
			}
			want = sha256Hex(g)
		}
		if r.code != http.StatusOK || sha256Hex(body) != want {
			b.mismatch("warming %s: HTTP %d, sha256 %.12s, reference %.12s", it.Name, r.code, sha256Hex(body), want)
			b.wrong++
		}
		s.bodies = append(s.bodies, body)
		s.hitSubs = append(s.hitSubs, sub)
	}
	return s, nil
}

// serve measures the ladder on a server warmed after a repeated set-up.
func (b *bench) serve() error {
	rungs := ladder(b.seconds)
	in, err := genServe(b.seed, rungs, hitSet(""), b.ref.MissCostOrder)
	if err != nil {
		return err
	}
	// Set-up is repeated on fresh caches and its median taken; the last
	// warmed server is the one measured.
	var s *session
	var ds []float64
	for i := 0; i < serveSetupRuns; i++ {
		if s != nil {
			if err := s.finish(); err != nil {
				return err
			}
		}
		b.calibrate()
		t0 := time.Now()
		if s, err = b.warm(strconv.Itoa(i), false); err != nil {
			return err
		}
		d := time.Since(t0)
		b.rows.write("setup", "start and warm dvsimd", i, t0, d, d.Seconds(), "s", opOK)
		ds = append(ds, d.Seconds())
	}
	if s.echo, err = s.startEcho(); err != nil {
		s.srv.stop()
		return err
	}
	s.load(rungs, in)
	if err := s.echo.stop(); err != nil {
		s.srv.stop()
		return fmt.Errorf("perfbench echo: %w", err)
	}
	rss, err := s.srv.stop()
	if err != nil {
		return err
	}
	if s.echoErr != nil {
		return s.echoErr
	}
	s.account()
	hits := s.hitRate(rungs)
	b.metrics["setup_s"] = median(ds) * b.speed()
	b.metrics["max_rss_mb"] = float64(rss) / 1024
	b.metrics["work_per_s"] = hits * median(b.echoCals) / echoRef.Seconds()
	b.notes["echo_calibration_s"] = fmt.Sprintf("median %.4f, min %.4f, max %.4f over %d (reference %.4f)",
		median(b.echoCals), percentile(b.echoCals, 0), percentile(b.echoCals, 100), len(b.echoCals), echoRef.Seconds())
	b.notes["latency"] = s.latencies()
	b.notes["unscaled"] = map[string]float64{"work_per_s": hits, "setup_s": median(ds)}
	return nil
}

// finish reads the server's cache counters and stops it.
func (s *session) finish() error {
	var cs struct{ Hits, Misses uint64 }
	resp, err := s.hitC.Get(s.srv.base + "/api/v1/cache/stats")
	if err == nil {
		err = json.NewDecoder(resp.Body).Decode(&cs)
		resp.Body.Close()
	}
	s.cacheHits, s.cacheMisses = cs.Hits, cs.Misses
	if _, serr := s.srv.stop(); err == nil {
		err = serr
	}
	return err
}

// load runs the rungs one after another; each drains before the next
// starts, and a calibration follows it.
func (s *session) load(rungs []rung, in serveInputs) {
	s.closedHits = in.closedHits
	for k, g := range rungs {
		span := s.b.tr.begin("rung "+g.name, layerBench, 0, "")
		s.rungSpan = span
		t0 := time.Now()
		s.starts = append(s.starts, t0)
		s.closed = append(s.closed, g.closed)
		end := t0.Add(time.Duration(g.seconds * float64(time.Second)))
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); s.lane(k, g, t0, end, in.hits[k], false) }()
		go func() { defer wg.Done(); s.lane(k, g, t0, end, in.misses[k], true) }()
		wg.Wait()
		s.b.tr.end(span)
		s.b.calibrate()
		if s.echo != nil && s.echoErr == nil {
			var starts []time.Time
			var chunks []time.Duration
			starts, chunks, s.echoErr = s.echo.calibrate()
			for i, d := range chunks {
				s.b.rows.write("calibration", "echo", len(s.b.echoCals), starts[i], d, d.Seconds(), "s", opOK)
				s.b.echoCals = append(s.b.echoCals, d.Seconds())
			}
		}
	}
}

// lane sends one connection's requests for rung k. In an open rung each
// arrival is sent when due, and latency runs from the due time, so time
// spent queued behind a slow response counts against the request that
// waited. In a closed rung the hit lane sends its next hit as soon as
// the last is answered, until the rung's end.
func (s *session) lane(k int, g rung, t0, end time.Time, arr []arrival, miss bool) {
	c := s.hitC
	kind := "hit"
	if miss {
		c, kind = s.missC, "miss"
	}
	var buf bytes.Buffer
	free := t0
	for n := 0; ; n++ {
		var due time.Time
		var item int
		if g.closed && !miss {
			if due = time.Now(); !due.Before(end) {
				return
			}
			item = pickHit(&s.closedHits, s.items)
		} else {
			if n == len(arr) {
				return
			}
			due, item = t0.Add(time.Duration(arr[n].At*float64(time.Second))), arr[n].Item
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
		}
		send := time.Now()
		var sub []byte
		if miss {
			sub, _ = json.Marshal(missSub(item))
		} else {
			sub = s.hitSubs[item]
		}
		reqID := fmt.Sprintf("%s-%d-%d", kind, k, n)
		span := s.b.tr.begin("POST /api/v1/submit "+kind, layerClient, s.rungSpan, reqID)
		r, err := submit(c, s.srv.base, sub, span, reqID, &buf)
		done := time.Now()
		s.b.tr.end(span)
		q := request{rung: k, miss: miss, item: item, due: due, end: done, late: send.Sub(maxTime(due, free)), code: r.code, span: span,
			bytes: int64(len(r.body)), lines: int64(bytes.Count(r.body, []byte{'\n'}))}
		q.status = s.check(q, r, err)
		free = done
		s.mu.Lock()
		s.reqs = append(s.reqs, q)
		s.mu.Unlock()
	}
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// check classifies one reply: wrong bytes, a non-2xx answer or an
// unexpected cache verdict make it wrong; a reply over the latency limit
// is failed.
func (s *session) check(q request, r reply, err error) int {
	kind, want := "hit", "hit"
	if q.miss {
		kind, want = "miss", "miss"
	}
	switch {
	case err != nil:
		s.b.mismatch("%s %d: %v", kind, q.item, err)
		return opWrong
	case r.code != http.StatusOK:
		s.b.mismatch("%s %d: HTTP %d: %s", kind, q.item, r.code, trimErr(string(r.body)))
		return opWrong
	case r.verdict != want:
		s.b.mismatch("%s %d: served as %q", kind, q.item, r.verdict)
		return opWrong
	case q.miss && (r.status != "" && r.status != "ok"):
		s.b.mismatch("miss %d: run status %q", q.item, r.status)
		return opWrong
	case q.miss && sha256Hex(r.body) != s.b.ref.Misses[q.item]:
		s.b.mismatch("miss %d: sha256 %.12s, reference %.12s", q.item, sha256Hex(r.body), s.b.ref.Misses[q.item])
		return opWrong
	case !q.miss && !bytes.Equal(r.body, s.bodies[q.item]):
		s.b.mismatch("hit %s: %d bytes differ from the warmed artifact", s.items[q.item].Name, len(r.body))
		return opWrong
	case q.latency() > serveLimit:
		return opFailed
	}
	return opOK
}

// account writes one row per request, in due order, with its latency in
// ms as measured. Generator lateness is taken over the scheduled
// requests: every miss, and the hits of the open rungs.
func (s *session) account() {
	var late []float64
	for _, q := range s.reqs {
		kind := "miss " + strconv.Itoa(q.item)
		if !q.miss {
			kind = "hit " + s.items[q.item].Name
		}
		s.b.done("rung"+strconv.Itoa(q.rung), kind, q.rung, q.due, q.latency(), q.latency().Seconds()*1e3, "ms", q.status)
		if q.miss || !s.closed[q.rung] {
			late = append(late, q.late.Seconds()*1e3)
		}
	}
	s.b.notes["generator_late_ms"] = fmt.Sprintf("p50 %.3f, p99 %.3f, max %.3f", percentile(late, 50), percentile(late, 99), percentile(late, 100))
	s.b.metrics["load.gen_late_p99_ms"] = percentile(late, 99)
}

// pick returns the latencies in ms at reference host speed of one rung's
// hits or misses.
func (s *session) pick(k int, miss bool) []float64 {
	var out []float64
	for _, q := range s.reqs {
		if q.rung == k && q.miss == miss {
			out = append(out, q.latency().Seconds()*1e3*s.b.speed())
		}
	}
	return out
}

// latencies are the hit latencies of the hits-alone rung and the miss
// latencies of the nominal mixed rung, in ms at reference host speed.
// They are reported but not gated: on a 2-CPU VM with steal time, even
// their medians moved by a quarter between runs of the same code.
func (s *session) latencies() map[string]float64 {
	hits, misses := s.pick(0, false), s.pick(1, true)
	return map[string]float64{
		"serve.hit_p50_ms":  percentile(hits, 50),
		"serve.hit_p99_ms":  percentile(hits, 99),
		"serve.miss_p50_ms": percentile(misses, 50),
		"serve.miss_p90_ms": percentile(misses, 90),
		"hits":              float64(len(hits)),
		"misses":            float64(len(misses)),
	}
}

// hitRate returns the median over the closed rungs of the hits answered
// per second, as measured: a rung's hits over the time from its start
// to its last hit reply. The closed rungs' miss latencies are noted
// beside it.
func (s *session) hitRate(rungs []rung) float64 {
	var rates, misses []float64
	for k, g := range rungs {
		if !g.closed {
			continue
		}
		n, last := 0, s.starts[k]
		for _, q := range s.reqs {
			if q.rung != k {
				continue
			}
			if q.miss {
				misses = append(misses, q.latency().Seconds()*1e3)
				continue
			}
			n++
			last = maxTime(last, q.end)
		}
		if n > 0 {
			rates = append(rates, float64(n)/last.Sub(s.starts[k]).Seconds())
		}
	}
	var sum float64
	for _, m := range misses {
		sum += m
	}
	s.b.notes["closed rungs"] = fmt.Sprintf("hits/s %.1f; miss ms p50 %.2f, p90 %.2f, mean %.2f",
		rates, percentile(misses, 50), percentile(misses, 90), sum/float64(max(1, len(misses))))
	return median(rates)
}
