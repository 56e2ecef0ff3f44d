package main

import (
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// leafCPU returns the CPU nanoseconds of a profile's samples, summed by
// the name of each sample's leaf function: the flat column of
// `go tool pprof -top`. pprof lists inlined functions on their own, so
// the leaf is the innermost inlined function. The go command is the one
// that built the binaries, found on PATH.
func leafCPU(path string) (map[string]int64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0", "-unit=ns", path)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %v: %s", path, err, trimErr(stderr.String()))
	}
	return parseTop(string(out))
}

// parseTop reads the rows of `go tool pprof -top -unit=ns` output, which
// follow a header line that starts with "flat":
//
//	1750000000ns 14.86% 14.86% 2600000000ns 14.86%  dvsim/internal/serial.(*Port).Pending (inline)
func parseTop(out string) (map[string]int64, error) {
	leaf := make(map[string]int64)
	rows := false
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if !rows {
			rows = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		ns, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ns"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", line, err)
		}
		name := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		leaf[name] += int64(ns)
	}
	if !rows {
		return nil, fmt.Errorf("no pprof -top table in %q", trimErr(out))
	}
	return leaf, nil
}

// cpuModules lists the cpu.* shares a profile is split into, in report
// order. Every sample lands in exactly one, so they sum to 100%.
var cpuModules = []string{
	"sim", "node", "serial", "battery", "host", "telemetry", "core",
	"manifest", "service", "net",
	"runtime.sched", "runtime.mem", "runtime.gc", "runtime.other",
	"other", "unattributed",
}

// dvsimModules are the internal packages that get a share of their own;
// the rest of dvsim (cpu, fault, governor, topology, sweep, …) is "other".
var dvsimModules = map[string]bool{
	"sim": true, "node": true, "serial": true, "battery": true, "host": true,
	"telemetry": true, "core": true, "manifest": true, "service": true,
}

// moduleOf maps a leaf function's symbol to its cpu.* module by the
// function's package. The Go runtime is split by what the function does:
// scheduling and goroutine handoff, allocation, garbage collection, or
// anything else. Sockets, pipes and the syscalls under them are "net".
// A sample whose leaf has no symbol (pprof prints its address), or is
// one of the profiler's placeholder frames, is unattributed.
func moduleOf(fn string) string {
	switch fn {
	case "", "runtime._ExternalCode", "runtime._System", "runtime._VDSO":
		return "unattributed"
	case "runtime._GC":
		return "runtime.gc"
	}
	if strings.HasPrefix(fn, "0x") {
		return "unattributed"
	}
	pkg, name := splitSymbol(fn)
	switch {
	case strings.HasPrefix(pkg, "dvsim/internal/"):
		m, _, _ := strings.Cut(strings.TrimPrefix(pkg, "dvsim/internal/"), "/")
		if dvsimModules[m] {
			return m
		}
		return "other"
	case pkg == "runtime":
		return runtimeModule(name)
	case pkg == "internal/runtime/syscall":
		return "runtime.sched"
	case strings.HasPrefix(pkg, "internal/runtime/") || strings.HasPrefix(pkg, "runtime/internal/"):
		return "runtime.other"
	case pkg == "sync" || strings.HasPrefix(pkg, "sync/") || pkg == "internal/sync":
		return "runtime.sched"
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "internal/poll" ||
		pkg == "syscall" || strings.HasPrefix(pkg, "internal/syscall/") ||
		strings.HasPrefix(pkg, "vendor/golang.org/x/net/"):
		return "net"
	}
	return "other"
}

// splitSymbol splits "dvsim/internal/serial.(*Port).Pending" into its
// package path and the rest.
func splitSymbol(fn string) (pkg, name string) {
	head := fn
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		head = fn[:i] // type arguments and receivers may hold slashes
	}
	slash := strings.LastIndex(head, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn, ""
	}
	return fn[:slash+1+dot], fn[slash+1+dot+1:]
}

var runtimeGroups = []struct {
	module   string
	prefixes []string
}{
	{"net", []string{"netpoll"}},
	{"runtime.gc", []string{
		"gc", "(*gc", "scan", "markroot", "greyobject", "findObject", "shade",
		"sweep", "bgsweep", "(*sweepLocked)", "(*mspan).sweep", "(*mheap).reclaim",
		"bgscavenge", "scavenge", "(*scavenger", "(*pageAlloc).scavenge",
		"wbBuf", "bulkBarrier", "typePointers", "(*mspan).typePointers",
		"(*gcBits", "markBits", "(*markBits", "spanOfHeap", "heapBitsForAddr",
		"(*mspan).heapBits", "runfinq", "queuefinalizer",
	}},
	{"runtime.mem", []string{
		"malloc", "newobject", "newarray", "makeslice", "makemap", "growslice",
		"memclr", "memmove", "typedmemmove", "typedmemclr", "typedslicecopy",
		"(*mcache)", "(*mcentral)", "(*mheap)", "(*mspan)", "nextFreeFast",
		"heapSetType", "(*pageAlloc)", "(*pageCache)", "sysAlloc", "sysUsed",
		"sysUnused", "sysFree", "sysMap", "sysHugePage", "madvise", "mmap", "munmap",
		"deductAssistCredit", "(*fixalloc)", "persistentalloc", "stackalloc",
		"stackfree", "stackcacherefill", "copystack", "newstack", "morestack",
		"rawstring", "rawbyteslice", "concatstring", "slicebytetostring",
		"stringtoslicebyte", "(*stackScanState)", "duffcopy", "duffzero",
	}},
	{"runtime.sched", []string{
		"schedule", "findRunnable", "findrunnable", "gopark", "goready", "ready",
		"park_m", "mcall", "gogo", "goexit", "casgstatus", "runqput", "runqget",
		"runqgrab", "runqsteal", "globrunq", "stealWork", "execute", "futex",
		"notesleep", "notewakeup", "notetsleep", "semasleep", "semawakeup",
		"stopm", "startm", "wakep", "handoffp", "acquirep", "releasep",
		"lock", "unlock", "chansend", "chanrecv", "selectgo", "send", "recv",
		"closechan", "(*waitq)", "usleep", "osyield", "procyield", "nanotime",
		"mPark", "resetspinning", "checkTimers", "(*timers)", "(*timer)",
		"runtimer", "semacquire", "semrelease", "sync_runtime", "(*semaRoot)",
		"newproc", "gfget", "gfput", "goschedImpl", "gosched_m", "preemptPark",
		"retake", "sysmon", "entersyscall", "exitsyscall", "reentersyscall",
		"(*lfstack)", "mstart", "systemstack", "asyncPreempt", "preemptone",
		"signalM", "tgkill", "sighandler", "sigtramp", "wakeNetPoller",
		"goroutineReady", "(*gQueue)", "(*randomOrder)", "(*randomEnum)",
		"(*guintptr)", "(*muintptr)", "(*puintptr)", "acquirem", "releasem", "pidle",
	}},
}

func runtimeModule(name string) string {
	for _, g := range runtimeGroups {
		for _, p := range g.prefixes {
			if strings.HasPrefix(name, p) {
				return g.module
			}
		}
	}
	return "runtime.other"
}

// cpuShares turns leaf CPU times into percentage shares per cpu.*
// module. Every module is present; the shares sum to 100 unless the
// profile holds no samples, when all are 0.
func cpuShares(leaf map[string]int64) map[string]float64 {
	by := make(map[string]int64)
	var total int64
	for fn, ns := range leaf {
		by[moduleOf(fn)] += ns
		total += ns
	}
	out := make(map[string]float64, len(cpuModules))
	for _, m := range cpuModules {
		if total > 0 {
			out[m] = 100 * float64(by[m]) / float64(total)
		} else {
			out[m] = 0
		}
	}
	return out
}

// topModule names the largest share.
func topModule(shares map[string]float64) (string, float64) {
	best, v := "", -1.0
	for _, m := range cpuModules {
		if shares[m] > v {
			best, v = m, shares[m]
		}
	}
	return best, v
}

// mergeLeaf adds b's leaf times into a.
func mergeLeaf(a, b map[string]int64) {
	for k, v := range b {
		a[k] += v
	}
}
