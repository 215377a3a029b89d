package experiments

import (
	"mobileqoe/internal/core"
	"mobileqoe/internal/cpu"
	"mobileqoe/internal/device"
)

func init() {
	registerSweep("Telephony frame rate across devices (Fig. 2c)", fig2c)
	registerSweep("Telephony QoE vs clock frequency (Fig. 5a)", fig5a)
	registerSweep("Telephony QoE vs memory capacity (Fig. 5b)", fig5b)
	registerSweep("Telephony QoE vs number of cores (Fig. 5c)", fig5c)
	registerSweep("Telephony QoE vs Android governor (Fig. 5d)", fig5d)
}

func fig2c() *Sweep {
	return &Sweep{ID: "fig2c", Title: "Video telephony frame rate across devices (default governor)",
		Axis: "device", Workload: Workload{Kind: KindCall}, Points: DevicePoints(nil, device.Catalog()),
		Notes: []string{"paper shape: ~18 fps on the low-end phone up to 30 fps on the high-end"}}
}

func fig5a() *Sweep {
	return &Sweep{ID: "fig5a", Title: "Telephony QoE vs clock (Nexus4, userspace governor)",
		Axis: "clock_mhz", Workload: Workload{Kind: KindCall},
		Points: ClockPoints(device.Nexus4(), nil, device.Nexus4FreqSteps()),
		Notes: []string{
			"paper shape: setup delay ≈5s→≈23s (an ~18s increase) and fps 30→~17 as the clock drops;",
			"the ABR steps the resolution down at slow clocks"}}
}

func fig5b() *Sweep {
	return &Sweep{ID: "fig5b", Title: "Telephony QoE vs memory (Nexus4)",
		Axis: "ram_gb", Workload: Workload{Kind: KindCall},
		Points: RAMPoints(device.Nexus4(), []core.Option{core.WithGovernor(cpu.Performance)}, paperRAM),
		Notes:  []string{"paper shape: mild memory sensitivity, like streaming"}}
}

func fig5c() *Sweep {
	return &Sweep{ID: "fig5c", Title: "Telephony QoE vs online cores (Nexus4)",
		Axis: "cores", Workload: Workload{Kind: KindCall}, Points: CorePoints(device.Nexus4(), nil, paperCores),
		Notes: []string{"paper shape: fewer cores slow setup and shave the frame rate"}}
}

func fig5d() *Sweep {
	return &Sweep{ID: "fig5d", Title: "Telephony QoE vs governor (Nexus4)",
		Axis: "governor", Workload: Workload{Kind: KindCall}, Points: GovernorPoints(device.Nexus4(), nil, cpu.Governors()),
		Notes: []string{"paper shape: powersave is the outlier"}}
}
