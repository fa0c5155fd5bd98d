package transport

// NewPortableUDP is NewUDP with its endpoints held on the portable
// one-datagram-per-syscall path, the only one off linux, so that the
// tests cover it on every platform.
func NewPortableUDP(cfg UDPConfig) (*UDPTransport, error) {
	t, err := NewUDP(cfg)
	if err == nil {
		t.portable = true
	}
	return t, err
}
