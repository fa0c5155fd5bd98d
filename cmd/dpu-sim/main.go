// Command dpu-sim runs a scripted dynamic-protocol-update scenario and
// narrates it: n stacks exchange totally-ordered messages while the
// atomic-broadcast protocol is replaced on the fly, finishing with a
// consistency audit of the delivery sequences.
//
// In the default single-process mode the stacks share a simulated LAN
// with optional loss and crash injection:
//
//	dpu-sim -n 5 -msgs 200 -switch abcast/seq,abcast/token -loss 0.05 -crash 4
//
// In multi-process mode each process hosts one stack and the group
// communicates over real UDP sockets. Start one process per address
// book entry, each with the same -peers list and its own -listen
// address; the chain of -switch protocols is driven mid-stream by the
// processes whose turn it is:
//
//	dpu-sim -listen 127.0.0.1:7000 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 -msgs 90 -switch abcast/seq
//	dpu-sim -listen 127.0.0.1:7001 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 -msgs 90 -switch abcast/seq
//	dpu-sim -listen 127.0.0.1:7002 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 -msgs 90 -switch abcast/seq
//
// Switch barriers are deterministic: the initiating process blocks in
// Node.ChangeProtocol until its local replacement completes, and every
// other process blocks in WaitForEpoch for the same epoch — no
// sleep-based guessing. Every process audits its own stack
// (internal/audit), checks all messages arrived and prints a digest of
// its delivery sequence; identical digests across processes certify the
// uniform total order.
//
// With -scenario it instead runs declarative scenarios (see
// docs/SCENARIOS.md): a cluster is driven through a scripted
// environment/membership timeline under virtual time with the
// invariant checkers on, and the per-phase and end-state expectations
// written in the scenario file are verified. -seed and -transport
// override a scenario's committed values only when given explicitly:
//
//	dpu-sim -scenario loss-ramp                       # corpus entry by name
//	dpu-sim -scenario all                             # whole scenarios/ corpus
//	dpu-sim -scenario file:my.dpu.yaml                # any scenario file on disk
//	dpu-sim -scenario large-50 -seed 9                # override the committed seed
//	dpu-sim -scenario crash-restart -transport tcp    # replay over loopback TCP
package main

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/dpu"
	"repro/internal/audit"
	"repro/internal/transport"
)

func main() {
	n := flag.Int("n", 3, "group size (single-process mode)")
	msgs := flag.Int("msgs", 100, "messages to broadcast (round-robin senders)")
	switches := flag.String("switch", "abcast/seq", "comma-separated protocol switch chain")
	initial := flag.String("initial", dpu.ProtocolCT, "initial protocol")
	loss := flag.Float64("loss", 0, "packet loss probability (simulated in single-process mode, injected over UDP in multi-process mode)")
	crash := flag.Int("crash", -1, "stack to crash after the last switch (-1: none; single-process mode)")
	seed := flag.Int64("seed", 1, "simulation / fault-injection seed")
	listen := flag.String("listen", "", "this process's socket address (enables multi-process mode)")
	peers := flag.String("peers", "", "comma-separated address book of the whole group, in stack order (multi-process mode)")
	transportKind := flag.String("transport", "udp", "multi-process socket backend: udp (datagrams) or tcp (streams; carries payloads past the datagram ceiling); with -scenario, replaces the scenario's fabric: sim, udp or tcp")
	joinsrv := flag.String("joinsrv", "", "TCP address to serve join handshakes on (multi-process mode; lets fresh processes -join)")
	join := flag.String("join", "", "join a running cluster via this member's -joinsrv TCP address (requires -listen for this process's UDP socket)")
	quiet := flag.Duration("quiet", 2*time.Second, "silence that ends delivery collection")
	scenarios := flag.String("scenario", "", "scenario(s) to run instead: a corpus name, file:<path>, or all (comma-separated; see docs/SCENARIOS.md)")
	flag.Parse()

	if *scenarios != "" {
		scs, err := resolveScenarios(*scenarios)
		if err != nil {
			fatalf("%v", err)
		}
		// The corpus files commit their own seed and fabric; the flags
		// override them only when set on the command line (-transport's
		// udp default is for multi-process mode).
		var seedOverride *int64
		transportOverride := ""
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "seed":
				seedOverride = seed
			case "transport":
				transportOverride = *transportKind
			}
		})
		if err := runScenarios(scs, seedOverride, transportOverride); err != nil {
			fatalf("%v", err)
		}
		return
	}

	chain := []string{}
	for _, s := range strings.Split(*switches, ",") {
		if s = strings.TrimSpace(s); s != "" {
			chain = append(chain, s)
		}
	}

	if *join != "" {
		runJoiner(*join, *listen, *quiet)
		return
	}
	if *listen != "" {
		runMulti(*listen, *peers, *transportKind, *msgs, *initial, chain, *loss, *seed, *quiet, *joinsrv)
		return
	}
	runSingle(*n, *msgs, *initial, chain, *loss, *crash, *seed, *quiet)
}

// runJoiner is the fresh-process path: handshake with a member over
// TCP, boot the newly assigned stack over real UDP, print the view it
// landed in, then observe the totally-ordered stream until it goes
// quiet, audit it and report a digest of the observed suffix.
func runJoiner(sponsor, listen string, quiet time.Duration) {
	if listen == "" {
		fatalf("-join requires -listen (this process's UDP address)")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	aud := audit.New()
	c, node, err := dpu.Join(ctx, sponsor, listen, dpu.WithTracer(aud))
	if err != nil {
		fatalf("%v", err)
	}
	defer c.Close()
	st, err := node.Status(ctx)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("joined as member %d: %s\n", node.Index(), st)

	aud.Join(node.Index())
	sequence := follow(aud, node)
	settle(func() int { return len(sequence()) }, math.MaxInt, quiet)
	mustAudit(aud)
	seq := sequence()
	fmt.Printf("observed %d totally-ordered deliveries since joining, audit clean; suffix digest %s\n",
		len(seq), digest(seq))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// follow drains node's unified event stream into aud until the cluster
// closes, and returns a snapshot of the delivery sequence so far. It
// subscribes with Block, not dropping: the audit must see every event,
// and the drain always consumes.
func follow(aud *audit.Auditor, node *dpu.Node) (sequence func() []string) {
	sub, err := node.Subscribe(dpu.SubscribeOptions{Events: true, Policy: dpu.Block})
	if err != nil {
		fatalf("%v", err)
	}
	var (
		mu  sync.Mutex
		seq []string
	)
	go func() {
		for ev := range sub.Events() {
			switch d, id := ev.Delivery, node.Index(); ev.Kind {
			case dpu.EventDelivery:
				aud.Deliver(id, d.Origin, d.Data)
				mu.Lock()
				seq = append(seq, fmt.Sprintf("%d:%s", d.Origin, d.Data))
				mu.Unlock()
			case dpu.EventSwitch:
				aud.Switch(id, ev.Switch.Epoch, ev.Switch.Protocol)
			case dpu.EventView:
				aud.View(id, ev.View.ID, ev.View.Members)
			}
		}
	}()
	return func() []string {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(seq)
	}
}

// settle polls until count reaches want and reports whether it did
// before count stood still for quiet.
func settle(count func() int, want int, quiet time.Duration) bool {
	for last, since := -1, time.Now(); ; time.Sleep(10 * time.Millisecond) {
		if k := count(); k >= want {
			return true
		} else if k != last {
			last, since = k, time.Now()
		} else if time.Since(since) >= quiet {
			return false
		}
	}
}

func mustAudit(aud *audit.Auditor) {
	if err := aud.Report().Err(); err != nil {
		fatalf("AUDIT FAILED: %v", err)
	}
}

// digest fingerprints a delivery sequence for cross-process comparison.
func digest(seq []string) string {
	h := sha256.New()
	for _, s := range seq {
		fmt.Fprintln(h, s)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// runMulti hosts one stack of an n-process group over real sockets —
// UDP datagrams or TCP streams, per -transport.
func runMulti(listen, peerList, transportKind string, msgs int, initial string, chain []string, loss float64, seed int64, quiet time.Duration, joinsrv string) {
	book := make(map[transport.Addr]string)
	self := -1
	var addrs []string
	for _, a := range strings.Split(peerList, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) < 2 {
		fatalf("multi-process mode needs -peers with at least two addresses")
	}
	for i, a := range addrs {
		book[transport.Addr(i)] = a
		if a == listen {
			self = i
		}
	}
	if self < 0 {
		fatalf("-listen %s does not appear in -peers %s", listen, peerList)
	}
	n := len(addrs)

	var (
		tr  transport.Transport
		err error
	)
	switch transportKind {
	case "udp":
		tr, err = transport.NewUDP(transport.UDPConfig{Book: book})
	case "tcp":
		tr, err = transport.NewTCP(transport.TCPConfig{Book: book})
	default:
		fatalf("-transport %q: want udp or tcp", transportKind)
	}
	if err != nil {
		fatalf("%v", err)
	}
	if loss > 0 {
		ft := transport.Faulty(tr, transport.FaultConfig{Seed: seed})
		ft.SetLoss(loss)
		tr = ft
	}
	endpoints := make(map[int]string, len(book))
	for a, ep := range book {
		endpoints[int(a)] = ep
	}
	aud := audit.New()
	c, err := dpu.New(n, dpu.WithTransport(tr), dpu.WithLocalStacks(self),
		dpu.WithInitialProtocol(initial), dpu.WithSeed(seed),
		dpu.WithMembership(), dpu.WithEndpoints(endpoints), dpu.WithTracer(aud))
	if err != nil {
		fatalf("%v", err)
	}
	defer c.Close()
	if joinsrv != "" {
		ln, err := net.Listen("tcp", joinsrv)
		if err != nil {
			fatalf("joinsrv: %v", err)
		}
		if err := c.ServeJoin(ln); err != nil {
			fatalf("joinsrv: %v", err)
		}
		fmt.Printf("serving join handshakes on %s\n", ln.Addr())
	}
	node, err := c.Node(self)
	if err != nil {
		fatalf("%v", err)
	}
	sequence := follow(aud, node)
	delivered := func() int { return len(sequence()) }

	fmt.Printf("stack %d of %d listening on %s, initial protocol %s\n", self, n, listen, initial)
	ctx := context.Background()

	// Barrier: every process announces itself through the atomic
	// broadcast and waits for the whole group, so no workload message
	// races a peer that has not bound its socket yet. The hellos are the
	// first n deliveries: no process broadcasts more before it has
	// delivered all of them.
	if err := node.Broadcast(ctx, []byte(fmt.Sprintf("hello-%d", self))); err != nil {
		fatalf("%v", err)
	}
	if !settle(delivered, n, 60*time.Second) {
		fatalf("group did not assemble within 60s")
	}
	fmt.Printf("all %d stacks joined\n", n)

	// Workload: global message index i is broadcast by stack i%n as its
	// (i/n)-th workload payload; the chain's step'th switch is initiated
	// by stack step%n after phase step's share of messages. The
	// initiator blocks until its own replacement completes; everyone
	// else waits for the same epoch — later phases exercise the new
	// protocol while earlier messages may still be draining elsewhere,
	// the live mid-stream replacement the paper is about.
	phases := len(chain) + 1
	perPhase := msgs / phases
	sendRange := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if i%n != self {
				continue
			}
			if err := node.Broadcast(ctx, audit.Payload(self, uint64(i/n), 0)); err != nil {
				fatalf("%v", err)
			}
		}
	}
	lo := 0
	for step, next := range chain {
		hi := (step + 1) * perPhase
		sendRange(lo, hi)
		lo = hi
		sctx, cancel := context.WithTimeout(ctx, 60*time.Second)
		if step%n == self {
			fmt.Printf("[%s] initiating switch to %s\n", time.Now().Format("15:04:05.000"), next)
			ev, err := node.ChangeProtocol(sctx, next)
			if err != nil {
				fatalf("switch to %s: %v", next, err)
			}
			fmt.Printf("switched to %s (epoch %d, %d reissued)\n", ev.Protocol, ev.Epoch, ev.Reissued)
		} else {
			st, err := node.WaitForEpoch(sctx, uint64(step+1))
			if err != nil {
				fatalf("switch to %s never completed locally: %v", next, err)
			}
			fmt.Printf("switched to %s (epoch %d)\n", st.Protocol, st.Epoch)
		}
		cancel()
	}
	sendRange(lo, msgs)

	// Collect until every expected message arrived — tolerating any run
	// length as long as deliveries keep making progress (60s of silence
	// is the failure signal) — then linger for the quiet window so a
	// late duplicate would still be caught, and audit.
	want := msgs + n // workload plus hellos
	if !settle(delivered, want, 60*time.Second) {
		fatalf("AGREEMENT VIOLATION: delivered %d of %d expected messages", delivered(), want)
	}
	time.Sleep(quiet)
	mustAudit(aud)
	seq := sequence()
	if len(seq) != want {
		fatalf("AGREEMENT VIOLATION: delivered %d, want %d", len(seq), want)
	}
	st, err := node.Status(ctx)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("OK: stack %d delivered %d messages exactly once, audit clean; final status %s\n",
		self, len(seq), st)
	fmt.Printf("sequence digest %s (must match every peer)\n", digest(seq))
}

// runSingle is the original scripted scenario over the simulated LAN.
func runSingle(n, msgs int, initial string, chain []string, loss float64, crash int, seed int64, quiet time.Duration) {
	aud := audit.New()
	c, err := dpu.New(n, dpu.WithSeed(seed), dpu.WithInitialProtocol(initial), dpu.WithTracer(aud))
	if err != nil {
		fatalf("%v", err)
	}
	defer c.Close()
	if err := c.SetLoss(loss); err != nil {
		fatalf("%v", err)
	}
	ctx := context.Background()

	nodes := make([]*dpu.Node, n)
	logs := make([]func() []string, n)
	for i := 0; i < n; i++ {
		if nodes[i], err = c.Node(i); err != nil {
			fatalf("%v", err)
		}
		logs[i] = follow(aud, nodes[i])
	}

	// Message k is stack k%n's (k/n)-th workload payload.
	phases := len(chain) + 1
	perPhase := msgs / phases
	sent := 0
	sendBatch := func(k int) {
		for i := 0; i < k; i++ {
			if err := nodes[sent%n].Broadcast(ctx, audit.Payload(sent%n, uint64(sent/n), 0)); err == nil {
				sent++
			}
		}
	}

	fmt.Printf("group of %d stacks, initial protocol %s, %d messages, loss %.0f%%\n",
		n, initial, msgs, loss*100)
	sendBatch(perPhase)
	for step, next := range chain {
		initiator := step % n
		fmt.Printf("[%v] switching to %s (initiated by stack %d)...\n",
			time.Now().Format("15:04:05.000"), next, initiator)
		sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		ev, err := nodes[initiator].ChangeProtocol(sctx, next)
		if err != nil {
			fatalf("switch to %s: %v", next, err)
		}
		fmt.Printf("  stack %d switched to %s (epoch %d, %d reissued)\n",
			initiator, ev.Protocol, ev.Epoch, ev.Reissued)
		for i := 0; i < n; i++ {
			if i == initiator {
				continue
			}
			st, err := nodes[i].WaitForEpoch(sctx, ev.Epoch)
			if err != nil {
				fatalf("stack %d never switched: %v", i, err)
			}
			fmt.Printf("  stack %d switched to %s (epoch %d)\n", i, st.Protocol, st.Epoch)
		}
		cancel()
		sendBatch(perPhase)
	}
	sendBatch(msgs - sent) // remainder

	live, probe := logs, nodes[0]
	if crash >= 0 && crash < n {
		// Fault drill: give the doomed stack's queued broadcasts a
		// moment to leave; whatever is still local when it dies is
		// legitimately lost (uniform agreement covers only messages
		// that got delivered somewhere).
		time.Sleep(500 * time.Millisecond)
		fmt.Printf("crashing stack %d\n", crash)
		nodes[crash].Crash() // the tracer retires it in the audit
		live, probe = slices.Delete(slices.Clone(logs), crash, crash+1), nodes[(crash+1)%n]
	}

	// Collect until every live stack delivered everything sent, then
	// linger a moment so a late duplicate is still caught; or until no
	// live stack has made progress for the quiet window. Then audit: one
	// total order, exactly once, and every live stack at its end — one
	// identical sequence.
	total := func() (k int) {
		for _, l := range live {
			k += len(l())
		}
		return k
	}
	if settle(total, sent*len(live), quiet) {
		time.Sleep(200 * time.Millisecond)
	}
	mustAudit(aud)
	st, _ := probe.Status(ctx)
	fmt.Printf("OK: %d of %d sent messages delivered exactly once in identical total order on all live stacks; final status %s\n",
		len(live[0]()), sent, st)
}
