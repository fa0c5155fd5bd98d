// Package transport abstracts the unreliable datagram fabric under the
// group-communication stack (the wire below Figure 4's UDP module), so
// the same protocol code runs over an in-process simulated LAN or over
// real UDP sockets spanning OS processes and hosts.
//
// A Transport hands out Endpoints: one per stack, identified by a small
// integer Addr that doubles as the stack's group address. Endpoints
// send best-effort datagrams — loss, duplication and reordering are all
// permitted, exactly the service the paper's stack assumes at the
// bottom and repairs above (RP2P adds reliability and FIFO order, the
// protocols above add agreement).
//
// Every backend implements the whole Endpoint contract (Send; Enqueue
// and Flush for a batch; delivery in batches), so no caller probes for
// capabilities. Three backends are provided:
//
//   - Sim wraps internal/simnet, the deterministic in-memory fabric of
//     the test suites and the scenario corpus.
//   - NewUDP binds real net.UDPConn sockets with a static address book
//     mapping Addr to host:port, for multi-process and multi-host
//     deployments (see cmd/dpu-sim's -listen/-peers mode).
//   - NewTCP keeps one stream per peer, for payloads past the datagram
//     ceiling.
//
// Two optional interfaces extend a backend:
//
//   - Router exposes explicit routing state (the real-socket address
//     book): membership views admit and retire endpoints at runtime
//     through AddRoute/RemoveRoute. Fabrics with implicit routing
//     (simnet reaches any address) simply do not implement it.
//   - FaultInjector exposes the runtime-mutable fault surface (SetLoss,
//     SetDelay, SetJitter, SetCorrupt, SetReorder, SetBurst, CutOneWay,
//     HealOneWay): scenario timelines and the adaptation scenarios
//     reshape a live network through it (see docs/ADAPTIVE.md).
//
// The Faulty decorator is the one fault model: it layers probabilistic
// loss, duplication, delay, corruption, reordering, bursts and one-way
// cuts over any backend — deterministically, from one seeded RNG — so
// the simulated LAN (which only delays and carries packets) and real
// sockets share every fault-injection test and scenario. It forwards
// Router calls to the inner transport and implements FaultInjector, so
// every fate parameter is mutable while traffic flows.
package transport
