package netsim

import "mobileqoe/internal/units"

// TLS overhead model — the paper's §6 future-work item ("TCP and TLS
// overheads in the network stack"). A TLS 1.2-style handshake adds two
// round trips after the TCP handshake plus asymmetric crypto on the device
// (expensive, scales with 1/clock), and record processing adds a symmetric
// per-byte cost to every received segment. On a weak CPU the handshake
// crypto alone is tens of milliseconds per connection — and page loads open
// one or two connections per origin.
const (
	// tlsHandshakeCycles is the client-side asymmetric work (key exchange,
	// certificate verification) per connection.
	tlsHandshakeCycles = 45e6
	// tlsPerByteCycles is the symmetric record decrypt/MAC cost per payload
	// byte (AES without hardware offload on these cores).
	tlsPerByteCycles = 14.0
	// tlsCertBytes is the certificate chain delivered during the handshake.
	tlsCertBytes = 4 * units.KB
)

// tlsHandshake runs after the TCP handshake when Config.TLS is set; fn runs
// once the session is established.
func (c *Conn) tlsHandshake(fn func()) {
	n := c.net
	// ClientHello out, ServerHello+certificate back.
	n.txCharge(512, func() {
		n.up.deliver(512, func() {
			n.down.deliver(tlsCertBytes, func() {
				n.rxCharge(tlsCertBytes, func() {
					// Certificate verification + key exchange on the device.
					crypto := func(after func()) {
						if !n.cfg.ChargeCPU || n.softirq == nil {
							after()
							return
						}
						n.softirq.Exec("tls-handshake", tlsHandshakeCycles, after)
					}
					crypto(func() {
						// Finished messages: one more round trip.
						n.txCharge(256, func() {
							n.up.deliver(256, func() {
								n.down.deliver(256, func() {
									n.rxCharge(256, fn)
								})
							})
						})
					})
				})
			})
		})
	})
}

// tlsRecordCycles returns the extra per-segment CPU cost when TLS is on.
func (n *Network) tlsRecordCycles(payload units.ByteSize) float64 {
	if !n.cfg.TLS {
		return 0
	}
	return tlsPerByteCycles * float64(payload)
}
