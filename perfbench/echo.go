package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// The serve workload's closed rungs are bound by HTTP round trips and
// by copying a few hundred KB a request through loopback sockets, not by
// CPU alone. On a shared VM that cost moves by more than half between
// periods, while the CPU calibration stays put. So the hit rate is scaled
// by a second calibration that repeats the closed hit loop with dvsimd
// left out: a `perfbench echo` process answers each request with as many
// bytes as the hit would carry, and the client checks them the same way.
// The run's echo time is the median of every chunk it ran, and echoRef
// is that median on the reference host.
const (
	echoRef    = 40 * time.Millisecond
	echoChunk  = 100 // round trips per chunk
	echoChunks = 15
	echoMax    = 8 << 20 // largest reply, in bytes
)

// echoMain is `perfbench echo`: an HTTP server on a free loopback port
// that answers POST /N with the first N bytes of echoPattern, until its
// standard input closes. It prints its address first.
func echoMain() int {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench echo:", err)
		return 1
	}
	fmt.Println(l.Addr().String())
	go func() {
		io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}()
	pattern := echoPattern(echoMax)
	err = http.Serve(l, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		n, err := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/"))
		if err != nil || n < 0 || n > echoMax {
			http.Error(w, "bad size", http.StatusBadRequest)
			return
		}
		w.Write(pattern[:n])
	}))
	fmt.Fprintln(os.Stderr, "perfbench echo:", err)
	return 1
}

// echoPattern is n bytes that are not all alike.
func echoPattern(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte('a' + i%26)
	}
	return p
}

// echo is a running `perfbench echo` and the hit loop it stands in for:
// each hit's submission and reply size, and its weight.
type echo struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	base  string
	c     *http.Client
	items []hitItem
	subs  [][]byte
	sizes []int
	want  []byte
}

// startEcho starts the echo process for a warmed session's hit set.
func (s *session) startEcho() (*echo, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	e := &echo{cmd: exec.Command(exe, "echo"), c: newClient(), items: s.items, subs: s.hitSubs}
	for _, b := range s.bodies {
		e.sizes = append(e.sizes, len(b))
	}
	e.want = echoPattern(echoMax)
	e.cmd.Stderr = os.Stderr
	if e.stdin, err = e.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	out, err := e.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := e.cmd.Start(); err != nil {
		return nil, err
	}
	addr, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		e.stop()
		return nil, fmt.Errorf("perfbench echo: %w", err)
	}
	e.base = "http://" + strings.TrimSpace(addr) + "/"
	return e, nil
}

// stop closes the echo's standard input and waits for it to exit.
func (e *echo) stop() error {
	e.stdin.Close()
	return e.cmd.Wait()
}

// calibrate runs echoChunks chunks of echoChunk round trips, drawing
// items by weight from a fixed stream so every calibration does the same
// work, and returns each chunk's start and time.
func (e *echo) calibrate() ([]time.Time, []time.Duration, error) {
	r := &rng{s: 0xec40}
	var buf bytes.Buffer
	var starts []time.Time
	var chunks []time.Duration
	for c := 0; c < echoChunks; c++ {
		t0 := time.Now()
		for i := 0; i < echoChunk; i++ {
			n := pickHit(r, e.items)
			resp, err := e.c.Post(e.base+strconv.Itoa(e.sizes[n]), "application/json", bytes.NewReader(e.subs[n]))
			if err != nil {
				return nil, nil, fmt.Errorf("echo calibration: %w", err)
			}
			buf.Reset()
			_, err = buf.ReadFrom(resp.Body)
			resp.Body.Close()
			if err != nil || !bytes.Equal(buf.Bytes(), e.want[:e.sizes[n]]) {
				return nil, nil, fmt.Errorf("echo calibration: wrong reply (%v)", err)
			}
		}
		starts = append(starts, t0)
		chunks = append(chunks, time.Since(t0))
	}
	return starts, chunks, nil
}
