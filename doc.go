// Package dvsim is a full reproduction of "Distributed Embedded Systems
// for Low Power: A Case Study" (Liu & Chou, IPPS 2004): a deterministic
// discrete-event simulation of the paper's Itsy pocket-computer testbed —
// StrongARM SA-1100 DVS, serial/PPP networking, lithium-ion batteries
// with rate-capacity and recovery effects — together with the automatic
// target recognition workload and the four distributed DVS techniques the
// paper evaluates: DVS during I/O, partitioning, power-failure recovery,
// and node rotation. Beyond the paper, a deterministic fault-injection
// engine (internal/fault, scenarios/) subjects the recovery machinery to
// seeded link faults, node crashes and battery variance, recovered by
// bounded serial retransmission and workload migration (experiment 2D);
// arbitrary-topology fleets (internal/topology: serial chains, wide
// pipelines, aggregation trees, sensor meshes) run through the same
// engine; and declarative manifest runfiles (internal/manifest,
// dvsim -manifest) expand into whole experiment sweeps with derived
// per-line seeds and byte-deterministic aggregation.
//
// The library lives under internal/ (sim, cpu, battery, serial, atr,
// node, governor, host, core, topology, manifest, fault, metrics, report);
// executables under cmd/ (dvsim, paperbench, calibrate, atr); runnable
// examples under examples/. Every run, whatever its kind, goes through
// one entry point, core.Simulate(ctx, Spec, Sinks): a Spec names a paper
// experiment, custom pipeline stages or a topology graph with its
// Params, and Sinks select the event log, metrics and traces. The benchmarks in this directory regenerate
// every table and figure of the paper's evaluation; see DESIGN.md,
// EXPERIMENTS.md and MANIFESTS.md.
package dvsim
