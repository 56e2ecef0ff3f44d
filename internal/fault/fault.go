// Package fault is a seeded, deterministic fault-schedule engine for the
// simulated testbed: link faults (message drop and garble, by per-port
// probability or explicit schedule), transient and permanent node
// crashes with optional restart delay, and per-node battery capacity
// variance.
//
// Faults are simulation-time events, exactly like the metrics samplers
// in internal/metrics: the engine uses no wall clock and no global
// random state. Probabilistic link faults draw from a private
// splitmix64 stream seeded by Scenario.Seed, consulted once per
// transfer in simulation order, so a given (scenario, platform,
// experiment) triple always produces the same fault sequence — two runs
// of the same seeded scenario yield byte-identical telemetry.
//
// A Scenario is a plain JSON document (see Load/Save and the scenarios/
// directory at the repository root); an Injector is its runtime form,
// wired by internal/core into the serial network (drop/garble
// verdicts), the node runtime (crash/restart) and the per-node battery
// factories (capacity variance). Recovery is the other half of the
// story: the serial layer retransmits dropped and garbled transfers
// with bounded exponential backoff (serial.SendReliable), and the node
// runtime's §5.4 migration path absorbs peers that never come back.
package fault

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"dvsim/internal/serial"
)

// Scenario is the serializable fault schedule for one run.
type Scenario struct {
	// Seed drives the probabilistic link faults. Two runs with the same
	// seed (and platform) see identical fault sequences.
	Seed uint64 `json:"seed"`
	// ReseedAtS, when > 0, replaces the link-fault stream at that
	// simulated instant with a fresh splitmix64 stream seeded by
	// ReseedSeed. It is the Monte Carlo hook (core.MonteCarlo): runs
	// sharing Seed are identical up to the reseed point and diverge
	// deterministically per ReseedSeed after it.
	ReseedAtS  float64 `json:"reseed_at_s,omitempty"`
	ReseedSeed uint64  `json:"reseed_seed,omitempty"`
	// Retry, when non-nil, overrides the platform's retransmit policy.
	Retry *serial.RetryPolicy `json:"retry,omitempty"`
	// Links are the link-fault rules, consulted in order; the first
	// matching rule decides each transfer.
	Links []LinkFault `json:"links,omitempty"`
	// Crashes are the scheduled node outages.
	Crashes []Crash `json:"crashes,omitempty"`
	// Batteries are the per-node capacity variances.
	Batteries []BatteryScale `json:"batteries,omitempty"`
}

// LinkFault fails transfers between matching ports: probabilistically
// within an active window, or at explicitly scheduled instants.
type LinkFault struct {
	// From and To name the sending and receiving ports ("node1",
	// "host-src", …); empty matches any port.
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// DropRate and GarbleRate are per-transfer probabilities in [0, 1];
	// their sum must not exceed 1.
	DropRate   float64 `json:"drop_rate,omitempty"`
	GarbleRate float64 `json:"garble_rate,omitempty"`
	// FromS and UntilS bound the window the rates apply in, in
	// simulated seconds; UntilS = 0 leaves the window open-ended.
	FromS  float64 `json:"from_s,omitempty"`
	UntilS float64 `json:"until_s,omitempty"`
	// DropAtS and GarbleAtS schedule explicit one-shot faults: each
	// listed time fails the first matching transfer at or after it,
	// regardless of the window or rates. Times must be ascending.
	DropAtS   []float64 `json:"drop_at_s,omitempty"`
	GarbleAtS []float64 `json:"garble_at_s,omitempty"`
}

// Crash schedules one node outage.
type Crash struct {
	// Node is the node name ("node1", …).
	Node string `json:"node"`
	// AtS is the crash instant in simulated seconds.
	AtS float64 `json:"at_s"`
	// RestartAfterS, when > 0, restarts the node that many seconds
	// after the crash (a transient fault); 0 is a permanent crash.
	RestartAfterS float64 `json:"restart_after_s,omitempty"`
}

// BatteryScale varies one node's battery capacity: the pack is built as
// usual, then scaled by CapacityScale before the run (0.8 = a pack that
// holds 80% of nominal charge).
type BatteryScale struct {
	Node          string  `json:"node"`
	CapacityScale float64 `json:"capacity_scale"`
}

// Validate checks the scenario for consistency.
func (sc *Scenario) Validate() error {
	if sc.Retry != nil {
		if err := sc.Retry.Validate(); err != nil {
			return err
		}
	}
	if sc.ReseedAtS < 0 {
		return fmt.Errorf("fault: negative reseed time %v", sc.ReseedAtS)
	}
	for i, lf := range sc.Links {
		if lf.DropRate < 0 || lf.DropRate > 1 || lf.GarbleRate < 0 || lf.GarbleRate > 1 {
			return fmt.Errorf("fault: link rule %d: rates out of [0,1]: drop %v garble %v",
				i, lf.DropRate, lf.GarbleRate)
		}
		if lf.DropRate+lf.GarbleRate > 1 {
			return fmt.Errorf("fault: link rule %d: drop %v + garble %v exceeds 1",
				i, lf.DropRate, lf.GarbleRate)
		}
		if lf.FromS < 0 || lf.UntilS < 0 || (lf.UntilS > 0 && lf.UntilS <= lf.FromS) {
			return fmt.Errorf("fault: link rule %d: bad window [%v, %v)", i, lf.FromS, lf.UntilS)
		}
		for _, at := range [][]float64{lf.DropAtS, lf.GarbleAtS} {
			if !sort.Float64sAreSorted(at) {
				return fmt.Errorf("fault: link rule %d: scheduled times not ascending: %v", i, at)
			}
			for _, t := range at {
				if t < 0 {
					return fmt.Errorf("fault: link rule %d: negative scheduled time %v", i, t)
				}
			}
		}
	}
	for i, c := range sc.Crashes {
		if c.Node == "" {
			return fmt.Errorf("fault: crash %d: empty node name", i)
		}
		if c.AtS < 0 || c.RestartAfterS < 0 {
			return fmt.Errorf("fault: crash %d: negative time (at %v, restart %v)",
				i, c.AtS, c.RestartAfterS)
		}
	}
	seen := make(map[string]bool, len(sc.Batteries))
	for i, b := range sc.Batteries {
		if b.Node == "" {
			return fmt.Errorf("fault: battery scale %d: empty node name", i)
		}
		if b.CapacityScale <= 0 {
			return fmt.Errorf("fault: battery scale %d (%s): capacity_scale %v",
				i, b.Node, b.CapacityScale)
		}
		if seen[b.Node] {
			return fmt.Errorf("fault: duplicate battery scale for %s", b.Node)
		}
		seen[b.Node] = true
	}
	return nil
}

// CapacityScale returns the battery scale for a node (1 when none is
// configured). A nil scenario scales nothing.
func (sc *Scenario) CapacityScale(node string) float64 {
	if sc == nil {
		return 1
	}
	for _, b := range sc.Batteries {
		if b.Node == node {
			return b.CapacityScale
		}
	}
	return 1
}

// Load reads and validates a JSON scenario.
func Load(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("fault: parsing scenario: %w", err)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// LoadFile is Load on a file path.
func LoadFile(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}

// Save writes the scenario as indented JSON.
func Save(w io.Writer, sc *Scenario) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sc)
}
