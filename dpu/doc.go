// Package dpu is the public API of the dynamic-protocol-update library:
// a reproduction of "Structural and Algorithmic Issues of Dynamic
// Protocol Update" (Rütti, Wojciechowski, Schiper — IPDPS 2006).
//
// A Cluster assembles n protocol stacks (the paper's machines) over a
// simulated LAN — or, with WithTransport, over real UDP sockets
// spanning OS processes and hosts — each running the Figure-4
// group-communication stack — UDP, reliable point-to-point, failure
// detector, Chandra–Toueg consensus, atomic broadcast — topped by the
// replacement module that makes the atomic-broadcast protocol
// hot-swappable.
//
// Interaction goes through per-stack Node handles, which are validated
// once (sentinel errors ErrOutOfRange, ErrRemoteStack, ErrNotRunning)
// and take a context on every blocking operation:
//
//	c, _ := dpu.New(3)
//	defer c.Close()
//	node, _ := c.Node(0)
//	sub, _ := node.Subscribe(dpu.SubscribeOptions{Deliveries: true})
//	node.Broadcast(ctx, []byte("hello"))           // backpressured
//	ev, _ := node.ChangeProtocol(ctx, dpu.ProtocolSequencer)
//	// ev is the completed switch: the paper's "seqNumber advanced"
//	for d := range sub.Deliveries() { ... }        // totally ordered
//
// ChangeProtocol blocks until the replacement completes locally — the
// well-defined moment of Algorithm 1 where seqNumber advances and
// undelivered messages are reissued — and returns the resulting
// SwitchEvent. WaitForEpoch gives the same barrier to observers that
// did not initiate the change; ChangeProtocolAll drives a whole local
// group. Messages broadcast before, during and after a replacement are
// delivered exactly once, in the same total order, on every stack.
//
// # Elastic membership
//
// With WithMembership the cluster is elastic: GM views drive the peer
// set of every layer, so members can be added and evicted at runtime.
// Cluster.AddNode admits a new node whose stack boots on the coherent
// cut its ordered join created (delivering the same totally-ordered
// suffix as the founders), Node.Evict removes a member with commit
// confirmation, WithAutoEvict turns failure-detector suspicions into
// ordered evictions, and ServeJoin/Join extend the same handshake
// across OS processes over real UDP. See docs/OPERATIONS.md for the
// operator runbook.
//
// # Adaptive protocol switching
//
// With WithAdaptive the cluster decides for itself when to switch: an
// adaptation engine samples runtime signals (loss estimated from RP2P
// retransmissions, ack RTT, consensus latency, throughput), evaluates
// a policy (LossSensitivePolicy, LatencySensitivePolicy, or custom),
// and — once a decision survives hysteresis and cooldown — drives
// ChangeProtocolAll. Every decision is observable through Node.Advise
// and Subscribe(Advice); the Advisory option reports decisions without
// acting on them. Runtime network mutators (SetLoss, SetDelay,
// SetJitter) and cmd/dpu-sim's -scenario timelines exercise the
// loop; docs/ADAPTIVE.md covers signals, policies and tuning.
package dpu
