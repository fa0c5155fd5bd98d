package main

import (
	"context"
	"fmt"
	"net"
	"time"

	"repro/dpu"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// bindAttempts bounds the retries of a build over real sockets. Loopback
// ports are reserved by binding and releasing them, so another socket can
// take one in between; that race belongs to the reservation trick, not to
// the program under test.
const bindAttempts = 4

// retryBind runs build, which reserves ports and binds them, until it
// succeeds or has failed bindAttempts times; build releases what it
// holds when it fails.
func retryBind(build func() error) (err error) {
	for attempt := 0; attempt < bindAttempts; attempt++ {
		if err = build(); err == nil {
			return nil
		}
	}
	return err
}

// reservePorts returns n free loopback "host:port" strings of the given
// network ("udp" or "tcp").
func reservePorts(network string, n int) (map[transport.Addr]string, error) {
	book := make(map[transport.Addr]string, n)
	for i := 0; i < n; i++ {
		var addr string
		if network == "udp" {
			pc, err := net.ListenPacket("udp", "127.0.0.1:0")
			if err != nil {
				return nil, fmt.Errorf("reserving a udp port: %w", err)
			}
			addr = pc.LocalAddr().String()
			pc.Close()
		} else {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, fmt.Errorf("reserving a tcp port: %w", err)
			}
			addr = l.Addr().String()
			l.Close()
		}
		book[transport.Addr(i)] = addr
	}
	return book, nil
}

// cluster is a running dpu.Cluster with handles on what the harness
// reads counters from.
type cluster struct {
	*dpu.Cluster
	sockets
	nodes []*dpu.Node
}

// sockets is the real-socket transport of a workload: one of the two,
// or neither for the simulated fabrics dpu.New builds itself.
type sockets struct {
	udp *transport.UDPTransport
	tcp *transport.TCPTransport
}

// transport returns the fabric as dpu.WithTransport wants it, or nil.
func (s sockets) transport() transport.Transport {
	switch {
	case s.udp != nil:
		return s.udp
	case s.tcp != nil:
		return s.tcp
	}
	return nil
}

// openSockets reserves n loopback ports and builds the transport of kind
// over them.
func openSockets(kind fabricKind, n int) (s sockets, err error) {
	switch kind {
	case fabricUDP:
		var book map[transport.Addr]string
		if book, err = reservePorts("udp", n); err == nil {
			s.udp, err = transport.NewUDP(transport.UDPConfig{Book: book, SocketBuffer: udpSocketBuffer})
		}
	case fabricTCP:
		var book map[transport.Addr]string
		if book, err = reservePorts("tcp", n); err == nil {
			s.tcp, err = transport.NewTCP(transport.TCPConfig{Book: book})
		}
	}
	return s, err
}

// newCluster assembles the n-stack cluster a workload runs on, through
// dpu.New alone. vc is the virtual clock of fabricVirtual, nil otherwise.
func newCluster(spec *workloadSpec, n int, seed int64, vc *vclock.Virtual) (*cluster, error) {
	opts := []dpu.Option{
		dpu.WithSeed(seed),
		dpu.WithInitialProtocol(spec.protocol),
	}
	switch {
	case vc != nil:
		opts = append(opts, dpu.WithClock(vc), dpu.WithMaxOutstanding(openLoopWindow))
	case spec.rate > 0:
		opts = append(opts, dpu.WithMaxOutstanding(openLoopWindow), dpu.WithFailureDetector(fdInterval, fdTimeout))
	default:
		opts = append(opts, dpu.WithMaxOutstanding(spec.window), dpu.WithFailureDetector(fdInterval, fdTimeout))
	}
	if spec.batching {
		opts = append(opts, dpu.WithBatching(batchDelay, batchBytes))
	}
	var cl *cluster
	err := retryBind(func() error {
		sk, err := openSockets(spec.fabric, n)
		if err != nil {
			return err
		}
		o := opts
		if tr := sk.transport(); tr != nil {
			o = append(o[:len(o):len(o)], dpu.WithTransport(tr))
		}
		c, err := dpu.New(n, o...) // closes the transport when it fails
		if err != nil {
			return err
		}
		cl = &cluster{Cluster: c, sockets: sk, nodes: make([]*dpu.Node, n)}
		for i := range cl.nodes {
			if cl.nodes[i], err = c.Node(i); err != nil {
				c.Close()
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("building the %s cluster: %w", spec.name, err)
	}
	return cl, nil
}

// subscribe opens one delivery-and-switch subscription per stack.
func (c *cluster) subscribe(policy dpu.LagPolicy) ([]*dpu.Subscription, error) {
	subs := make([]*dpu.Subscription, len(c.nodes))
	for i, n := range c.nodes {
		s, err := n.Subscribe(dpu.SubscribeOptions{Deliveries: true, Switches: true, Buffer: subBuffer, Policy: policy})
		if err != nil {
			return nil, err
		}
		subs[i] = s
	}
	return subs, nil
}

// setupCycle is one cold cycle behind setup_s: build the cluster, push
// the warm-up messages through until every stack has delivered them all,
// close. It returns the cycle's wall time.
func setupCycle(spec *workloadSpec, n int, seed int64) (time.Duration, error) {
	start := time.Now()
	var vc *vclock.Virtual
	if spec.fabric == fabricVirtual {
		vc = vclock.NewVirtual()
	}
	c, err := newCluster(spec, n, seed, vc)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	subs, err := c.subscribe(dpu.DropOldest)
	if err != nil {
		return 0, err
	}
	bufs := newPayloadBuffers(seed, n, spec.payload)
	ctx, cancel := context.WithTimeout(context.Background(), drainDeadline)
	defer cancel()
	send := func() error {
		for id := 0; id < spec.warmup; id++ {
			stampPayload(bufs[id%n], uint64(id))
			if err := c.nodes[id%n].Broadcast(ctx, bufs[id%n]); err != nil {
				return err
			}
		}
		return nil
	}
	sent := make(chan error, 1)
	if vc != nil {
		// Under the virtual clock the broadcasts are one clock event and
		// this goroutine, the clock's owner, steps time until they have
		// all arrived (the subscriptions buffer more than the warm-up).
		vc.AfterFunc(0, func() { sent <- send() })
		for step := 0; step < 10000 && len(subs[n-1].Deliveries()) < spec.warmup; step++ {
			vc.RunFor(time.Millisecond)
		}
	} else {
		go func() { sent <- send() }()
	}
	for _, s := range subs {
		for got := 0; got < spec.warmup; got++ {
			select {
			case <-s.Deliveries():
			case <-ctx.Done():
				return 0, fmt.Errorf("setup cycle: warm-up stalled after %d of %d deliveries", got, spec.warmup)
			}
		}
	}
	if err := <-sent; err != nil {
		return 0, err
	}
	c.Close()
	return time.Since(start), nil
}
