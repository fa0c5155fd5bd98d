package dpu

import (
	"fmt"

	"repro/internal/transport"
)

// injector resolves the cluster's one fault surface: the Faulty
// decorator New wraps the built-in simulated LAN in, or an external
// transport that implements transport.FaultInjector itself (typically
// one the caller wrapped in transport.Faulty).
func (c *Cluster) injector() (transport.FaultInjector, error) {
	if fi, ok := c.tr.(transport.FaultInjector); ok {
		return fi, nil
	}
	return nil, fmt.Errorf("%w: fault injection needs the simulated network or a transport.FaultInjector transport (e.g. transport.Faulty)", ErrUnsupported)
}

// SetCorrupt changes the probability, in [0, 1], that a datagram has
// 1–3 of its bytes flipped in flight. The per-frame checksum
// (internal/wire) turns each corruption into a counted drop
// (wire.frames_rejected) at the receiver, so the layers above see loss,
// never garbage. ErrUnsupported without a fault surface (see
// WithTransport).
func (c *Cluster) SetCorrupt(p float64) error {
	fi, err := c.injector()
	if err != nil {
		return err
	}
	fi.SetCorrupt(p)
	return nil
}

// SetReorder changes the probability, in [0, 1], that a datagram is
// held back long enough for later sends to overtake it. ErrUnsupported
// without a fault surface.
func (c *Cluster) SetReorder(p float64) error {
	fi, err := c.injector()
	if err != nil {
		return err
	}
	fi.SetReorder(p)
	return nil
}

// SetBurst changes the probability, in [0, 1], that a datagram opens a
// correlated loss burst swallowing length datagrams in total (length
// <= 0 keeps the current burst length). ErrUnsupported without a fault
// surface.
func (c *Cluster) SetBurst(p float64, length int) error {
	fi, err := c.injector()
	if err != nil {
		return err
	}
	fi.SetBurst(p, length)
	return nil
}

// PartitionOneWay blocks datagrams from stack a to stack b while the
// reverse direction keeps flowing — the asymmetric partition that
// drives a failure detector's hardest cases (a hears b, b suspects a).
// ErrUnsupported without a fault surface.
func (c *Cluster) PartitionOneWay(a, b int) error {
	if err := c.checkPair(a, b); err != nil {
		return err
	}
	fi, err := c.injector()
	if err != nil {
		return err
	}
	fi.CutOneWay(transport.Addr(a), transport.Addr(b))
	return nil
}

// HealOneWay restores the directed link cut by PartitionOneWay.
func (c *Cluster) HealOneWay(a, b int) error {
	if err := c.checkPair(a, b); err != nil {
		return err
	}
	fi, err := c.injector()
	if err != nil {
		return err
	}
	fi.HealOneWay(transport.Addr(a), transport.Addr(b))
	return nil
}

// checkPair validates two stack ids against the cluster's id space
// (without requiring either to be locally hosted or running: one-way
// cuts of remote or already-crashed members are legitimate).
func (c *Cluster) checkPair(a, b int) error {
	size := c.N()
	if a < 0 || a >= size || b < 0 || b >= size {
		return fmt.Errorf("%w: link %d-%d not in [0,%d)", ErrOutOfRange, a, b, size)
	}
	return nil
}

// FaultStats snapshots the Faulty decorator's counters (zero stats and
// ErrUnsupported when the cluster's transport is not a Faulty one).
func (c *Cluster) FaultStats() (transport.FaultStats, error) {
	ft, ok := c.tr.(*transport.FaultyTransport)
	if !ok {
		return transport.FaultStats{}, fmt.Errorf("%w: fault stats need a transport.Faulty transport", ErrUnsupported)
	}
	return ft.Stats(), nil
}
