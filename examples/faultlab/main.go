// Faultlab: subject the paper's best two-node partitioning scheme (§5.2)
// to a hostile run — a lossy inter-node link, a node2 outage with a slow
// restart, and a weak node2 battery pack — and show the two recovery
// layers doing their jobs: bounded serial retransmission absorbs the wire
// faults, and §5.4 task migration absorbs the outage. The run is
// deterministic: same scenario, same output, every time.
package main

import (
	"context"
	"fmt"

	"dvsim/internal/core"
	"dvsim/internal/fault"
	"dvsim/internal/serial"
)

func main() {
	p := core.DefaultParams()
	best, err := p.BestTwoNodeScheme()
	if err != nil {
		panic(err)
	}

	sc := &fault.Scenario{
		Seed: 11,
		// 8% of transfers vanish and 3% arrive corrupt, on every link.
		Links: []fault.LinkFault{{DropRate: 0.08, GarbleRate: 0.03}},
		// node2 goes dark 2 minutes in and needs 40 s to come back.
		Crashes: []fault.Crash{{Node: "node2", AtS: 120, RestartAfterS: 40}},
		// node2 also drew the short straw at the battery factory.
		Batteries: []fault.BatteryScale{{Node: "node2", CapacityScale: 0.85}},
		// Three retransmissions with 50 ms initial backoff, doubling.
		Retry: &serial.RetryPolicy{MaxAttempts: 3, BackoffS: 0.05, BackoffFactor: 2},
	}

	const frames = 200
	p.Faults = sc
	p.RotationPeriod = 0
	out, err := core.Simulate(context.Background(), core.Spec{
		Stages: core.StagesFromPartition(best, true),
		Label:  "faultlab",
		Ack:    true,
		Params: p,
		Frames: frames,
	}, core.Sinks{})
	if err != nil {
		panic(err)
	}

	fmt.Printf("best two-node scheme under faults, %d frames offered\n\n", frames)
	fs := out.FaultStats
	fmt.Printf("injected:  %d drops, %d garbles, %d crashes, %d restarts\n",
		fs.Drops, fs.Garbles, fs.Crashes, fs.Restarts)
	fmt.Printf("delivered: %d results reached the host (%d frames written off)\n\n",
		out.Frames, out.FramesDropped)

	fmt.Println("serial recovery (per port):")
	fmt.Printf("  %-10s %9s %9s %9s %9s %9s\n",
		"port", "dropped", "garbled", "retries", "giveups", "rx_drop")
	var retries, giveUps int
	for _, ps := range out.PortStats {
		if ps.TxDropped+ps.TxGarbled+ps.TxRetries+ps.TxGiveUps+ps.RxDropped == 0 {
			continue
		}
		fmt.Printf("  %-10s %9d %9d %9d %9d %9d\n", ps.Port,
			ps.TxDropped, ps.TxGarbled, ps.TxRetries, ps.TxGiveUps, ps.RxDropped)
		retries += ps.TxRetries
		giveUps += ps.TxGiveUps
	}
	fmt.Printf("  => %d wire faults, %d retransmissions, %d spent budgets\n\n",
		fs.Drops+fs.Garbles, retries, giveUps)

	fmt.Println("node recovery:")
	for _, ns := range out.NodeStats {
		fmt.Printf("  %-6s crashes %d  restarts %d  migrations %d  abandoned %d  results %d\n",
			ns.Name, ns.Crashes, ns.Restarts, ns.Migrations, ns.FramesAbandoned, ns.ResultsSent)
	}
}
