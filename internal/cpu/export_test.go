package cpu

import "mobileqoe/internal/units"

// setUserspaceFreq retargets the userspace governor mid-run, for the
// scheduler tests' clock changes between tasks. Production pins the clock
// once, through Config.UserspaceFreq.
func (c *CPU) setUserspaceFreq(f units.Freq) {
	c.cfg.UserspaceFreq = f
	for _, cl := range c.clusters {
		c.setFreq(cl, cl.snap(f))
	}
	c.reschedule()
}
