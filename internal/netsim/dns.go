package netsim

import "time"

// DNS resolution model. The paper's methodology clears the DNS cache before
// every page load, so each origin's first connection pays a lookup. The
// model keeps a per-Network cache (one "browsing session"), charges a small
// CPU cost for the stub resolver, and serializes concurrent lookups for the
// same name behind one query, like a real resolver cache does.
//
// Under an injected dns-timeout fault the resolver's responses are dropped;
// the stub retries with a fixed timeout a bounded number of times, then
// fails the lookup with ErrDNS (nothing is cached, so a later lookup can
// succeed once the window closes).

const (
	// dnsServerDelay is resolver processing beyond the RTT (cache hit at the
	// AP's forwarder; the paper's LAN has no upstream latency).
	dnsServerDelay = 8 * time.Millisecond
	dnsCPUCycles   = 250e3 // stub resolver + socket round trip
	// dnsTimeout is the stub resolver's per-attempt timeout, and
	// dnsAttempts bounds the retries before the lookup fails.
	dnsTimeout  = 1500 * time.Millisecond
	dnsAttempts = 3
)

type dnsState struct {
	cache   map[string]bool
	pending map[string][]func(error)
}

// ResolveE invokes fn once the name is resolved. The first lookup for a
// name costs one round trip plus resolver processing; later lookups are
// cache hits and fire synchronously. Lookups are skipped entirely when the
// network was configured with DNS disabled. fn receives ErrDNS when an
// injected dns-timeout fault exhausts the stub resolver's retries.
func (n *Network) ResolveE(name string, fn func(error)) {
	if !n.cfg.DNS {
		fn(nil)
		return
	}
	if n.dns.cache == nil {
		n.dns.cache = map[string]bool{}
		n.dns.pending = map[string][]func(error){}
	}
	if n.dns.cache[name] {
		fn(nil)
		return
	}
	n.dns.pending[name] = append(n.dns.pending[name], fn)
	if len(n.dns.pending[name]) > 1 {
		return // a query for this name is already in flight
	}
	n.dnsQuery(name, 1)
}

// dnsQuery issues attempt number attempt (1-based) for the name.
func (n *Network) dnsQuery(name string, attempt int) {
	n.txCharge(80, func() {
		n.up.deliver(80, func() {
			n.s.PostAfter(dnsServerDelay, func() {
				if n.cfg.Obs.Faults.DNSTimedOut() {
					// The response never arrives; the stub times out and
					// either retries or gives up.
					if attempt >= dnsAttempts {
						n.s.PostAfter(dnsTimeout, func() { n.dnsDone(name, ErrDNS) })
						return
					}
					n.s.PostAfter(dnsTimeout, func() { n.dnsQuery(name, attempt+1) })
					return
				}
				n.down.deliver(200, func() {
					n.rxCharge(200, func() {
						if n.cfg.ChargeCPU && n.softirq != nil {
							n.softirq.Exec("dns", dnsCPUCycles, func() { n.dnsDone(name, nil) })
							return
						}
						n.dnsDone(name, nil)
					})
				})
			})
		})
	})
}

func (n *Network) dnsDone(name string, err error) {
	if err == nil {
		n.dns.cache[name] = true
	}
	waiters := n.dns.pending[name]
	delete(n.dns.pending, name)
	for _, w := range waiters {
		w(err)
	}
}
