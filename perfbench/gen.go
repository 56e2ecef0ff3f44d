package main

import (
	"fmt"
	"math"
	"strings"
)

// Submission is dvsimd's wire envelope (POST /api/v1/submit), limited
// to the fields the serve workload sets.
type Submission struct {
	Experiment string  `json:"experiment,omitempty"`
	UntilS     float64 `json:"until_s,omitempty"`
	Manifest   string  `json:"manifest,omitempty"`
	Governor   string  `json:"governor,omitempty"`
	Rotation   int     `json:"rotation,omitempty"`
	Priority   string  `json:"priority,omitempty"`
}

// hitItem is one entry of the serve workload's warm working set.
type hitItem struct {
	Name   string
	Sub    Submission
	Golden string // committed file the response must equal, if any
	Weight int    // relative share of hit requests
}

// hitSet is the warm working set: the 120 s windows of exp 1, 2C and 2D
// (byte-identical to the committed telemetry goldens), two artifacts of
// a few MB and one manifest sweep. Most hits are the small windows; the
// large artifacts and the sweep keep response size and request parsing
// varied.
func hitSet(treeManifest string) []hitItem {
	return []hitItem{
		{"1@120", Submission{Experiment: "1", UntilS: 120}, "internal/core/testdata/telemetry_1.jsonl", 30},
		{"2C@120", Submission{Experiment: "2C", UntilS: 120}, "internal/core/testdata/telemetry_2C.jsonl", 30},
		{"2D@120", Submission{Experiment: "2D", UntilS: 120}, "internal/core/testdata/telemetry_2D.jsonl", 30},
		{"2@3600", Submission{Experiment: "2", UntilS: 3600}, "", 4},
		{"2B@3600", Submission{Experiment: "2B", UntilS: 3600}, "", 4},
		{"tree_scaling", Submission{Manifest: treeManifest}, "", 2},
	}
}

// missCatalogue is how many distinct cold submissions have reference
// digests; a run draws its misses from a seeded order of them.
// missStratum is the size of the cost strata that order is drawn from.
const (
	missCatalogue = 600
	missStratum   = 8
)

var (
	missExps      = []string{"1", "1A", "2", "2A", "2B", "2C", "2D"}
	missGovernors = []string{"", "interval", "pid", "buffer"}
	missRotations = []int{0, 25, 50, 100}
)

// missSub returns cold submission i of the catalogue. Windows run from
// 121 to 3589 s and are distinct for every i < 3469 (a prime), so no two
// submissions share a cache key and none is a working-set window. One in
// ten is a bulk manifest sweep of small faulted chains whose base seed
// makes every line distinct.
func missSub(i int) Submission {
	h := splitmix64(uint64(i) + 0x5eed)
	if i%10 == 9 {
		return Submission{Manifest: missManifest(i, h), Priority: "bulk"}
	}
	s := Submission{
		Experiment: missExps[h%uint64(len(missExps))],
		UntilS:     float64(121 + (7*i)%3469),
		Governor:   missGovernors[(h>>16)%uint64(len(missGovernors))],
	}
	if s.Experiment == "2C" {
		s.Rotation = missRotations[(h>>32)%uint64(len(missRotations))]
	}
	return s
}

func missManifest(i int, h uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "base_seed = %d\nframes = %d\n\ntopology, nodes, faults, seeds, label\n", 10000+i, 10+h%20)
	for n := 2; n <= 4; n++ {
		fmt.Fprintf(&b, "\"serial\", %d, \"default\", \"1..2\", \"m%d-%d\"\n", n, i, n)
	}
	return b.String()
}

// splitmix64 is the seed mixer; it is also dvsim's own stream generator.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a seeded splitmix64 stream.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	v := splitmix64(r.s)
	r.s += 0x9e3779b97f4a7c15
	return v
}

// float returns a uniform value in (0, 1].
func (r *rng) float() float64 { return (float64(r.next()>>11) + 1) / (1 << 53) }

// exp returns an exponential interarrival time for rate λ.
func (r *rng) exp(rate float64) float64 { return -math.Log(r.float()) / rate }

// arrival is one request due at At seconds into its rung.
type arrival struct {
	At   float64
	Item int // hit set index, or miss catalogue index
}

// serveInputs are everything a serve run sends, derived from its seed.
type serveInputs struct {
	hits   [][]arrival // per rung; empty for closed rungs
	misses [][]arrival // per rung
	// closedHits draws the closed rungs' hits, in turn, by weight.
	closedHits rng
}

// genServe draws each rung's arrivals. An open rung's hits are a Poisson
// stream that picks a working-set entry by weight; a closed rung's hits
// are drawn as they are sent, from closedHits. Misses arrive once per
// 1/rate slot at a seeded point within it, so every run offers the same
// number of misses. They take the entries of missOrder in turn, so no
// miss repeats within a run. costOrder lists the miss catalogue from
// the quickest to the slowest to answer.
func genServe(seed uint64, rungs []rung, items []hitItem, costOrder []int) (serveInputs, error) {
	r := &rng{s: splitmix64(seed)}
	order := missOrder(r, costOrder)
	var in serveInputs
	for _, g := range rungs {
		var hs, ms []arrival
		if !g.closed {
			for t := r.exp(g.hitRate); t < g.seconds; t += r.exp(g.hitRate) {
				hs = append(hs, arrival{t, pickHit(r, items)})
			}
		}
		for slot := 0; slot < int(g.missRate*g.seconds); slot++ {
			if len(order) == 0 {
				return in, fmt.Errorf("serve needs more than %d cold submissions; shorten the run", missCatalogue)
			}
			ms = append(ms, arrival{(float64(slot) + r.float()) / g.missRate, order[0]})
			order = order[1:]
		}
		in.hits = append(in.hits, hs)
		in.misses = append(in.misses, ms)
	}
	in.closedHits = *r
	return in, nil
}

// pickHit draws a working-set index by weight.
func pickHit(r *rng, items []hitItem) int {
	total := 0
	for _, it := range items {
		total += it.Weight
	}
	w := int(r.next() % uint64(total))
	n := 0
	for w >= items[n].Weight {
		w -= items[n].Weight
		n++
	}
	return n
}

// missOrder is the seeded order a run sends cold submissions in.
// costOrder, the catalogue from cheapest to dearest, is cut into strata
// of missStratum entries. Each round visits every stratum once, with a
// golden-ratio stride from a seeded start, and takes the next entry of a
// seeded permutation of each. Any run of consecutive entries then
// samples the whole cost range evenly, so the misses' latencies, and
// the CPU they take from the hits, do not hang on which ones the seed
// drew.
func missOrder(r *rng, costOrder []int) []int {
	n := len(costOrder) / missStratum
	stride := int(0.618 * float64(n))
	for gcd(stride, n) != 1 {
		stride++
	}
	start := int(r.next() % uint64(n))
	perms := make([][]int, n)
	for st := range perms {
		p := make([]int, missStratum)
		for i := range p {
			p[i] = i
		}
		for i := len(p) - 1; i > 0; i-- {
			j := int(r.next() % uint64(i+1))
			p[i], p[j] = p[j], p[i]
		}
		perms[st] = p
	}
	out := make([]int, 0, n*missStratum)
	for round := 0; round < missStratum; round++ {
		for j := 0; j < n; j++ {
			st := (start + j*stride) % n
			out = append(out, costOrder[st*missStratum+perms[st][round]])
		}
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
