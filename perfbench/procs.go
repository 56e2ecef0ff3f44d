package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// cliRun is one finished dvsim subprocess.
type cliRun struct {
	start  time.Time
	dur    time.Duration
	rssKB  int64
	stdout []byte // collected when no sink was given
	stderr string
	err    error
}

// cli runs bin/name with args from the checkout root and times it from
// start to exit. Standard output streams into sink, or is collected when
// sink is nil. In a traced pass the call is a span of the cli layer.
func (b *bench) cli(name string, parent int64, sink io.Writer, args ...string) cliRun {
	cmd := exec.Command(filepath.Join(b.bin, name), args...)
	cmd.Dir = b.root
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	if sink != nil {
		cmd.Stdout = sink
	}
	cmd.Stderr = &errb
	id := b.tr.begin(name+" "+strings.Join(args, " "), layerCLI, parent, "")
	r := cliRun{start: time.Now()}
	r.err = cmd.Run()
	r.dur = time.Since(r.start)
	b.tr.end(id)
	r.stdout = out.Bytes()
	r.stderr = errb.String()
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			r.rssKB = int64(ru.Maxrss)
		}
	}
	return r
}

// hashSink digests a stream and counts its bytes and lines, so a
// full-window telemetry log is checked without being kept.
type hashSink struct {
	h            hash.Hash
	bytes, lines int64
}

func newHashSink() *hashSink { return &hashSink{h: sha256.New()} }

func (s *hashSink) Write(p []byte) (int, error) {
	s.h.Write(p)
	s.bytes += int64(len(p))
	s.lines += int64(bytes.Count(p, []byte{'\n'}))
	return len(p), nil
}

func (s *hashSink) sum() string { return hex.EncodeToString(s.h.Sum(nil)) }

func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// processStarts samples the CLI's set-up cost, starting dvsim and
// letting it initialise, as three runs of dvsim -version, each followed
// by a calibration. It is called before every pass, so set-up time and host
// speed are medians over the whole run rather than over its first
// seconds. A single calibration varies by about 15% from the next on a
// shared VM, so three a pass keep the run's median close to the host's
// speed during the run.
func (b *bench) processStarts() error {
	for i := 0; i < 3; i++ {
		r := b.cli("dvsim", 0, nil, "-version")
		if r.err != nil {
			return fmt.Errorf("dvsim -version: %v: %s", r.err, trimErr(r.stderr))
		}
		b.rows.write("setup", "dvsim -version", len(b.starts), r.start, r.dur, r.dur.Seconds(), "s", opOK)
		b.starts = append(b.starts, r.dur.Seconds())
		b.calibrate()
	}
	return nil
}
