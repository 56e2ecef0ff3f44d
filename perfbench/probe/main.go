// Command probe is perfbench's in-process side. It times calls into the
// public functions of dvsim's modules, profiles single experiments, and
// hosts dvsimd's service with a CPU profile and request spans for the
// traced serve run. perfbench runs it only in traced runs, so the timed
// runs measure the shipped dvsim and dvsimd binaries alone.
//
//	probe layers -root DIR -dir SCRATCH
//	probe profile -exp ID -o FILE
//	probe serve -addr HOST:PORT -cache-dir DIR -cpuprofile FILE -spans FILE
//	probe wallh
package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"dvsim/internal/core"
	"dvsim/internal/manifest"
	"dvsim/internal/serial"
	"dvsim/internal/service"
	"dvsim/internal/sim"
	"dvsim/internal/sweep"
	"dvsim/internal/telemetry"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: probe layers|profile|serve|wallh [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "layers":
		err = layers(os.Args[2:])
	case "profile":
		err = profile(os.Args[2:])
	case "serve":
		err = serve(os.Args[2:])
	case "wallh":
		err = wallh()
	default:
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "probe:", err)
		os.Exit(1)
	}
}

// median of per-repetition results; each probe repeats its measurement
// and reports the middle one, so one preempted repetition does not move it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func repeat(n int, fn func() float64) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = fn()
	}
	return median(xs)
}

func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// layerReport is what `probe layers` prints.
type layerReport struct {
	Metrics map[string]float64 `json:"metrics"`
	// SerialSweepSHA256 is the digest of the serial_sweep CSV the sweep
	// probe aggregated; perfbench checks it against the reference.
	SerialSweepSHA256 string `json:"serial_sweep_sha256"`
	// EncodeRoundTrip is whether re-encoding the exp 2D telemetry golden
	// through telemetry.Encoder reproduced it byte for byte.
	EncodeRoundTrip bool `json:"encode_roundtrip"`
}

func layers(args []string) error {
	fs := flag.NewFlagSet("layers", flag.ExitOnError)
	root := fs.String("root", ".", "repository checkout")
	dir := fs.String("dir", "", "scratch directory for the cache probe")
	fs.Parse(args)
	rep := layerReport{Metrics: make(map[string]float64)}
	m := rep.Metrics

	m["sim.schedule_pop_ns"] = repeat(5, func() float64 { return schedulePop(200_000) })
	m["sim.handoff_ns"] = repeat(5, func() float64 { return handoff(50_000) })
	m["sim.chan_ns"] = repeat(5, func() float64 { return chanPingPong(25_000) })
	kb, err := exp2PayloadKB()
	if err != nil {
		return err
	}
	m["serial.tx_us"] = repeat(5, func() float64 { return serialTx(20_000, kb) / 1e3 })
	m["battery.drain_ns"] = repeat(5, func() float64 { return drain(1_000_000) })

	golden, err := os.ReadFile(filepath.Join(*root, "internal/core/testdata/telemetry_2D.jsonl"))
	if err != nil {
		return err
	}
	recs, err := parseRecords(golden)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	encodeAll(&buf, recs)
	rep.EncodeRoundTrip = bytes.Equal(buf.Bytes(), golden)
	encNs := repeat(5, func() float64 {
		t0 := time.Now()
		for i := 0; i < 20; i++ {
			encodeAll(io.Discard, recs)
		}
		return nsPer(time.Since(t0), 20*len(recs))
	})
	m["telemetry.encode_ns_per_record"] = encNs

	p := core.DefaultParams()
	var recErr error
	m["core.record_ns_per_record"] = repeat(5, func() float64 {
		t0 := time.Now()
		n, err := core.RunTelemetry(core.Exp1, p, 30*3600, io.Discard)
		tel := time.Since(t0)
		if err != nil || n == 0 {
			recErr = fmt.Errorf("RunTelemetry(1): %d records, %v", n, err)
			return 0
		}
		t0 = time.Now()
		core.Run(core.Exp1, p)
		run := time.Since(t0)
		return nsPer(tel-run, n) - encNs
	})
	if recErr != nil {
		return recErr
	}
	m["core.run_overhead_us"] = repeat(101, func() float64 {
		t0 := time.Now()
		core.RunExperiment(core.Exp2, p, 1)
		return float64(time.Since(t0).Nanoseconds()) / 1e3
	})

	paths := []string{"serial_sweep", "tree_scaling", "mesh_faults"}
	for i, n := range paths {
		paths[i] = filepath.Join(*root, "scenarios", "manifests", n+".toml")
	}
	var expandErr error
	m["manifest.expand_ms"] = repeat(21, func() float64 {
		t0 := time.Now()
		for _, path := range paths {
			mf, err := manifest.LoadFile(path)
			if err == nil {
				_, err = mf.Expand()
			}
			if err != nil {
				expandErr = err
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / 1e6
	})
	if expandErr != nil {
		return expandErr
	}
	mf, err := manifest.LoadFile(paths[0])
	if err != nil {
		return err
	}
	exps, err := mf.Expand()
	if err != nil {
		return err
	}
	var results []manifest.Result
	m["sweep.efficiency"] = repeat(3, func() float64 {
		var eff float64
		results, eff = timedSweep(exps, 2)
		return eff
	})
	csv := manifest.CSV(results)
	rep.SerialSweepSHA256 = sha256Hex([]byte(csv))
	m["manifest.aggregate_ms"] = repeat(21, func() float64 {
		t0 := time.Now()
		manifest.CSV(results)
		return float64(time.Since(t0).Nanoseconds()) / 1e6
	})

	get, put, err := cacheProbe(*dir)
	if err != nil {
		return err
	}
	if err := os.RemoveAll(*dir); err != nil {
		return err
	}
	m["service.cache_get_us"], m["service.cache_put_us"] = get, put

	enc := json.NewEncoder(os.Stdout)
	return enc.Encode(rep)
}

// schedulePop is kernel dispatch alone: n events scheduled with Kernel.At
// at scattered times, then popped and fired by Run. Returns ns per event.
func schedulePop(n int) float64 {
	k := sim.NewKernel()
	fn := func() {}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		k.At(sim.Time(float64((i*7919)%n)*1e-3), fn)
	}
	k.Run()
	return nsPer(time.Since(t0), n)
}

// handoff is one process park→resume round trip: Proc.Wait schedules a
// wake-up, parks the process's goroutine and resumes it from the kernel.
// Returns ns per Wait.
func handoff(n int) float64 {
	k := sim.NewKernel()
	k.Spawn("waiter", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Wait(1e-3)
		}
	})
	t0 := time.Now()
	k.Run()
	return nsPer(time.Since(t0), n)
}

// chanPingPong is a sim.Chan rendezvous: two processes bounce a value.
// Returns ns per delivered message.
func chanPingPong(n int) float64 {
	k := sim.NewKernel()
	ping, pong := sim.NewChan[int](k, "ping"), sim.NewChan[int](k, "pong")
	k.Spawn("a", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			ping.Send(i)
			pong.Recv(p)
		}
	})
	k.Spawn("b", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			v, _ := ping.Recv(p)
			pong.Send(v)
		}
	})
	t0 := time.Now()
	k.Run()
	return nsPer(time.Since(t0), 2*n)
}

// exp2PayloadKB is the inter-node payload of exp 2's best two-node
// partition: the size of one serial transaction in the paper's pipeline.
func exp2PayloadKB() (float64, error) {
	pt, err := core.DefaultParams().BestTwoNodeScheme()
	if err != nil {
		return 0, err
	}
	return pt.PayloadKB(0), nil
}

// serialTx is one Port.Send→Recv transaction of kb kilobytes between two
// processes. Returns host ns per transaction.
func serialTx(n int, kb float64) float64 {
	k := sim.NewKernel()
	net := serial.NewNetwork(k, serial.DefaultLink())
	src, dst := net.Port("node1"), net.Port("node2")
	k.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			src.Send(p, dst, serial.Message{From: "node1", Kind: serial.KindInter, Frame: i, KB: kb})
		}
	})
	k.Spawn("rx", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			dst.Recv(p)
		}
	})
	t0 := time.Now()
	k.Run()
	return nsPer(time.Since(t0), n)
}

// drain steps the Itsy's two-well battery through a cycle of currents,
// resetting it when empty. Returns ns per TwoWell.Drain.
func drain(n int) float64 {
	b := core.DefaultItsyBattery()
	currents := [4]float64{40, 130, 250, 90}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		b.Drain(currents[i&3], 0.05)
		if b.Empty() {
			b.Reset()
		}
	}
	return nsPer(time.Since(t0), n)
}

// field is one key of a telemetry record, in file order.
type field struct {
	key  string
	str  string
	num  float64
	nums []float64
	kind byte // 's', 'n' or 'a'
}

// parseRecords reads JSONL records as ordered key/value lists, so the
// encode probe writes the same keys in the same order as the run did.
func parseRecords(data []byte) ([][]field, error) {
	var out [][]field
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		dec.UseNumber()
		if _, err := dec.Token(); err != nil {
			return nil, err
		}
		var rec []field
		for dec.More() {
			kt, err := dec.Token()
			if err != nil {
				return nil, err
			}
			f := field{key: kt.(string)}
			vt, err := dec.Token()
			if err != nil {
				return nil, err
			}
			switch v := vt.(type) {
			case string:
				f.kind, f.str = 's', v
			case json.Number:
				f.kind = 'n'
				if f.num, err = v.Float64(); err != nil {
					return nil, err
				}
			case json.Delim:
				f.kind = 'a'
				for dec.More() {
					t, err := dec.Token()
					if err != nil {
						return nil, err
					}
					x, err := t.(json.Number).Float64()
					if err != nil {
						return nil, err
					}
					f.nums = append(f.nums, x)
				}
				if _, err := dec.Token(); err != nil {
					return nil, err
				}
			default:
				return nil, fmt.Errorf("unexpected value %v for %q", vt, f.key)
			}
			rec = append(rec, f)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

func encodeAll(w io.Writer, recs [][]field) {
	enc := telemetry.NewEncoder(w)
	for _, rec := range recs {
		enc.Begin()
		for _, f := range rec {
			switch f.kind {
			case 's':
				enc.Str(f.key, f.str)
			case 'n':
				enc.Float(f.key, f.num)
			case 'a':
				enc.Floats(f.key, f.nums)
			}
		}
		enc.End()
	}
	enc.Flush()
}

// timedSweep runs a manifest's lines on the sweep pool, timing each item.
// Efficiency is the items' busy time over workers × the sweep's wall time.
func timedSweep(exps []manifest.Experiment, workers int) ([]manifest.Result, float64) {
	busy := make([]time.Duration, len(exps))
	idx := make([]int, len(exps))
	for i := range idx {
		idx[i] = i
	}
	t0 := time.Now()
	res := sweep.Run(idx, workers, func(i int) manifest.Result {
		s := time.Now()
		out := exps[i].Run()
		busy[i] = time.Since(s)
		return manifest.Result{Experiment: exps[i], Outcome: out}
	})
	wall := time.Since(t0)
	var total time.Duration
	for _, d := range busy {
		total += d
	}
	return res, float64(total) / (float64(workers) * float64(wall))
}

// cacheProbe times Cache.Put and Cache.Get of 64 KB artifacts on a fresh
// on-disk cache. Returns the median µs of each.
func cacheProbe(dir string) (get, put float64, err error) {
	if dir == "" {
		return 0, 0, errors.New("layers: -dir is required")
	}
	if err := os.RemoveAll(dir); err != nil {
		return 0, 0, err
	}
	c, err := service.NewCache(dir)
	if err != nil {
		return 0, 0, err
	}
	payload := bytes.Repeat([]byte("0123456789abcdef"), 4096)
	var puts, gets []float64
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = sha256Hex([]byte(strconv.Itoa(i)))
		t0 := time.Now()
		if err := c.Put(keys[i], payload); err != nil {
			return 0, 0, err
		}
		puts = append(puts, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	for r := 0; r < 8; r++ {
		for _, k := range keys {
			t0 := time.Now()
			if _, ok := c.Get(k); !ok {
				return 0, 0, fmt.Errorf("cache lost %s", k)
			}
			gets = append(gets, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	return median(gets), median(puts), nil
}

func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// profileSeconds is how long `probe profile` runs its experiment.
const profileSeconds = 2.5

// profile runs one experiment to exhaustion over and over under the CPU
// profiler for profileSeconds, so its module shares rest on enough samples.
func profile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	exp := fs.String("exp", "2", "experiment")
	out := fs.String("o", "", "profile file")
	fs.Parse(args)
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p := core.DefaultParams()
	runs := 0
	for t0 := time.Now(); runs == 0 || time.Since(t0).Seconds() < profileSeconds; runs++ {
		core.Run(core.ID(*exp), p)
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("{\"runs\": %d}\n", runs)
	return nil
}

// wallh prints Σ WallH over the paper suite: the simulated hours one
// dvsim -compare pass covers.
func wallh() error {
	p := core.DefaultParams()
	total := 0.0
	for _, id := range core.AllExperiments {
		total += core.Run(id, p).WallH
	}
	fmt.Println(strconv.FormatFloat(total, 'g', -1, 64))
	return nil
}

// span mirrors perfbench's span record.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    string `json:"req,omitempty"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// Server spans are numbered from serverSpanBase up, clear of the IDs
// perfbench gives its own spans. The server runs serveWorkers simulation
// workers, as dvsimd does in the timed serve runs.
const (
	serverSpanBase = 1 << 40
	serveWorkers   = 2
)

// serve hosts dvsimd's service in process under the CPU profiler and
// records a server-layer span for every request that carries a parent
// span from perfbench. SIGTERM drains it like dvsimd, then the profile
// and spans are written.
func serve(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:0", "listen address")
	cacheDir := fs.String("cache-dir", "", "cache directory")
	cpuprofile := fs.String("cpuprofile", "", "CPU profile file")
	spansOut := fs.String("spans", "", "span file")
	fs.Parse(args)

	srv, err := service.New(service.Config{Workers: serveWorkers, CacheDir: *cacheDir})
	if err != nil {
		return err
	}
	pf, err := os.Create(*cpuprofile)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return err
	}
	var mu sync.Mutex
	var spans []span
	next := int64(serverSpanBase)
	h := srv.Handler()
	traced := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now().UnixNano()
		h.ServeHTTP(w, r)
		end := time.Now().UnixNano()
		parent, err := strconv.ParseInt(r.Header.Get("X-Perfbench-Span"), 10, 64)
		if err != nil {
			return
		}
		mu.Lock()
		next++
		spans = append(spans, span{ID: next, Parent: parent, Req: r.Header.Get("X-Perfbench-Req"),
			Name: r.Method + " " + r.URL.Path, Layer: "server", Start: start, End: end})
		mu.Unlock()
	})
	hs := &http.Server{Addr: *addr, Handler: traced}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		shctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		hs.Shutdown(shctx)
		srv.Close()
	}()
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		stop()
		<-done
		pprof.StopCPUProfile()
		pf.Close()
		return err
	}
	<-done
	pprof.StopCPUProfile()
	if err := pf.Close(); err != nil {
		return err
	}
	f, err := os.Create(*spansOut)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	mu.Lock()
	defer mu.Unlock()
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
