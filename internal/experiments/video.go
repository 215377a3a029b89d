package experiments

import (
	"mobileqoe/internal/core"
	"mobileqoe/internal/cpu"
	"mobileqoe/internal/device"
)

func init() {
	registerSweep("Streaming startup latency and stall ratio across devices (Fig. 2b)", fig2b)
	registerSweep("Streaming QoE vs clock frequency (Fig. 4a)", fig4a)
	registerSweep("Streaming QoE vs memory capacity (Fig. 4b)", fig4b)
	registerSweep("Streaming QoE vs number of cores (Fig. 4c)", fig4c)
	registerSweep("Streaming QoE vs Android governor (Fig. 4d)", fig4d)
}

func fig2b() *Sweep {
	return &Sweep{ID: "fig2b", Title: "Video streaming QoE across devices (default governor)",
		Axis: "device", Workload: Workload{Kind: KindVideo}, Points: DevicePoints(nil, device.Catalog()),
		Notes: []string{
			"paper shape: startup grows ~2→5s from high-end to low-end; stall ratio ~0 everywhere;",
			"the low-end phone is served 480p, not FullHD"}}
}

func fig4a() *Sweep {
	return &Sweep{ID: "fig4a", Title: "Streaming QoE vs clock (Nexus4, userspace governor)",
		Axis: "clock_mhz", Workload: Workload{Kind: KindVideo},
		Points: ClockPoints(device.Nexus4(), nil, device.Nexus4FreqSteps()),
		Notes: []string{
			"paper shape: startup 1.2→3.5s as the clock drops; stall ratio stays ~0 (HW decode,",
			"parallel demux, 120s prefetch)"}}
}

func fig4b() *Sweep {
	return &Sweep{ID: "fig4b", Title: "Streaming QoE vs memory (Nexus4)",
		Axis: "ram_gb", Workload: Workload{Kind: KindVideo},
		Points: RAMPoints(device.Nexus4(), []core.Option{core.WithGovernor(cpu.Performance)}, paperRAM),
		Notes:  []string{"paper shape: startup rises under the squeeze, stalls stay ~0"}}
}

func fig4c() *Sweep {
	return &Sweep{ID: "fig4c", Title: "Streaming QoE vs online cores (Nexus4)",
		Axis: "cores", Workload: Workload{Kind: KindVideo}, Points: CorePoints(device.Nexus4(), nil, paperCores),
		Notes: []string{
			"paper shape: the single-core configuration adds seconds of startup and ~15% stalls —",
			"the one case where video QoE visibly degrades"}}
}

func fig4d() *Sweep {
	return &Sweep{ID: "fig4d", Title: "Streaming QoE vs governor (Nexus4)",
		Axis: "governor", Workload: Workload{Kind: KindVideo}, Points: GovernorPoints(device.Nexus4(), nil, cpu.Governors()),
		Notes: []string{"paper shape: same trend as Web for startup, zero stalls throughout"}}
}
