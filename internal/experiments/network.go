package experiments

import "mobileqoe/internal/device"

func init() {
	registerSweep("TCP throughput vs clock frequency (Fig. 6)", fig6)
}

func fig6() *Sweep {
	return &Sweep{ID: "fig6", Title: "iperf TCP throughput vs clock (Nexus4, 72 Mbps AP)",
		Axis: "clock_mhz", Workload: Workload{Kind: KindIperf},
		Points: ClockPoints(device.Nexus4(), nil, device.Nexus4FreqSteps()),
		Notes: []string{
			"paper shape: ≈48 Mbps at 1512 MHz falling to ≈32 Mbps at 384 MHz, a second-order",
			"effect of charging packet processing to the CPU (see abl-packetcpu)"}}
}
