package scenario

import (
	"context"
	"fmt"
	"hash/fnv"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/dpu"
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// Options tunes one Run.
type Options struct {
	// Seed overrides the scenario's seed when non-nil (seed sweeps).
	Seed *int64
	// Transport overrides the scenario's transport when non-empty
	// ("sim", "udp" or "tcp") — the transport-matrix axis.
	Transport string
	// Log, when set, receives one line per phase (progress narration
	// for CLI drivers; tests leave it nil).
	Log func(format string, args ...any)
}

// PhaseResult records one executed phase.
type PhaseResult struct {
	Name        string
	Start, End  time.Duration // virtual offsets from the run start
	EndProtocol string        // installed protocol at the phase boundary
	Switches    int           // completed switches on the reference stack within the phase
}

// SwitchRecord is one completed protocol replacement on the reference
// stack.
type SwitchRecord struct {
	At       time.Duration // virtual offset from the run start
	Epoch    uint64
	Protocol string
	Reissued int
}

// Counts are the deterministic per-run event totals over every stack: a
// seeded virtual run must reproduce them bit-identically.
type Counts struct {
	Deliveries int
	Switches   int
	Views      int
	Advice     int
}

// Result is the outcome of one scenario run that passed every
// invariant and expectation.
type Result struct {
	Name          string
	Seed          int64
	Transport     string // fabric the run executed over: sim, udp or tcp
	Nodes         int    // stacks alive at the end
	Phases        []PhaseResult
	Switches      []SwitchRecord
	Counts        Counts
	Digest        uint64 // see digest
	FinalProtocol string
	FinalMembers  []int
	// RejectedFrames counts the datagrams the wire checksum refused
	// during this run (the receive-side witness of corrupt actions).
	RejectedFrames uint64
	VirtualTime    time.Duration // simulated time covered
	WallTime       time.Duration // real time spent
}

// Run executes one scenario and audits it. Under `transport: sim`
// (the default) the run happens in virtual time on the simulated
// fabric — deterministic to the bit. Over "udp" or "tcp" the same
// timeline plays on the wall clock over real loopback sockets, with
// the Faulty decorator as the environment-shaping surface; the
// invariant checkers still audit every event stream, but digests are
// schedule-dependent there. The returned error carries the first
// expectation failure or invariant violation; the Result is returned
// even then (when the run got far enough to produce one) so callers
// can report partial evidence.
func Run(sc *Scenario, opts Options) (*Result, error) {
	seed := sc.Seed
	if opts.Seed != nil {
		seed = *opts.Seed
	}
	trKind := sc.Transport
	if trKind == "" {
		trKind = "sim"
	}
	if opts.Transport != "" {
		trKind = opts.Transport
	}
	logf := opts.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	wallStart := time.Now() //dpulint:ignore clocktime wall_ms result reporting measures real elapsed time, deliberately outside the virtual clock

	aud := audit.New()
	dopts := []dpu.Option{
		dpu.WithSeed(seed),
		dpu.WithInitialProtocol(sc.Initial),
		dpu.WithTracer(aud),
	}
	var (
		clk  runClock
		pool *endpointPool
	)
	switch trKind {
	case "sim":
		vc := vclock.NewVirtual()
		clk = virtualRunClock{vc}
		dopts = append(dopts, dpu.WithClock(vc))
		// The simulated LAN's defaults (100µs ± 50µs) apply unless the
		// scenario shapes the founding environment explicitly.
		if sc.Env.Latency != nil {
			jitter := *sc.Env.Latency / 2
			if sc.Env.Jitter != nil {
				jitter = *sc.Env.Jitter
			}
			dopts = append(dopts, dpu.WithLatency(*sc.Env.Latency, jitter))
		}
		if sc.Env.Bandwidth != nil {
			dopts = append(dopts, dpu.WithBandwidth(*sc.Env.Bandwidth))
		}
	case "udp", "tcp":
		if sc.Env.Bandwidth != nil {
			return nil, fmt.Errorf("scenario %s: bandwidth shaping needs the simulated network (transport: sim)", sc.Name)
		}
		// Founders plus one fresh endpoint per admitting action: ids
		// are never reused, so neither are socket addresses. Reservation
		// is bind-then-release, so a port can be stolen in the window —
		// typically by an ephemeral outbound connection of a previous
		// run — and the transport build fails with "address already in
		// use". That race is an artifact of the reservation trick, not
		// of the code under test: re-reserve and retry a few times.
		var (
			tr         transport.Transport
			eps        []string
			founderEps map[int]string
		)
		for attempt := 1; ; attempt++ {
			var err error
			eps, err = reserveEndpoints(trKind, sc.Nodes+sc.joinBudget())
			if err != nil {
				return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
			}
			book := make(map[transport.Addr]string, sc.Nodes)
			founderEps = make(map[int]string, sc.Nodes)
			for i := 0; i < sc.Nodes; i++ {
				book[transport.Addr(i)] = eps[i]
				founderEps[i] = eps[i]
			}
			if trKind == "udp" {
				tr, err = transport.NewUDP(transport.UDPConfig{Book: book})
			} else {
				tr, err = transport.NewTCP(transport.TCPConfig{Book: book})
			}
			if err == nil {
				break
			}
			if attempt >= 3 {
				return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
			}
			logf("scenario %s: endpoint reservation lost a port race (%v); re-reserving", sc.Name, err)
		}
		// The run's fault surface, seeded as dpu seeds the one it wraps
		// the simulated LAN in: with every rate at zero it consumes no
		// randomness and is schedule-neutral.
		dopts = append(dopts, dpu.WithTransport(transport.Faulty(tr, transport.FaultConfig{Seed: seed ^ 0x5eedfa17})))
		if sc.Membership {
			dopts = append(dopts, dpu.WithEndpoints(founderEps))
		}
		pool = &endpointPool{free: eps[sc.Nodes:]}
		clk = newWallRunClock()
	default:
		return nil, fmt.Errorf("scenario %s: unknown transport %q (known: sim, udp, tcp)", sc.Name, trKind)
	}
	// A window as large as the number of ticks one sender can issue: the
	// workload's Node.Broadcast then never blocks, which on the virtual
	// clock's owner goroutine would deadlock the run.
	dopts = append(dopts, dpu.WithMaxOutstanding(sc.maxTicks(clk.ExpectGrace())))
	if sc.Membership {
		dopts = append(dopts, dpu.WithMembership())
	}
	if sc.AutoEvict {
		dopts = append(dopts, dpu.WithAutoEvict())
	}
	if sc.Grace > 0 {
		dopts = append(dopts, dpu.WithGrace(sc.Grace))
	}
	if sc.FD.Interval > 0 || sc.FD.Timeout > 0 {
		dopts = append(dopts, dpu.WithFailureDetector(sc.FD.Interval, sc.FD.Timeout))
	}
	if a := sc.Adaptive; a != nil {
		var p dpu.AdaptivePolicy
		switch a.Policy {
		case "loss-sensitive":
			p = dpu.LossSensitivePolicy(0, 0)
		case "latency-sensitive":
			p = dpu.LatencySensitivePolicy(0, 0)
		default:
			return nil, fmt.Errorf("scenario %s: unknown adaptive policy %q", sc.Name, a.Policy)
		}
		aopts := []dpu.AdaptiveOption{
			dpu.AdaptiveInterval(a.Interval),
			dpu.AdaptiveConfirm(a.Confirm),
			dpu.AdaptiveCooldown(a.Cooldown),
		}
		if a.Advisory {
			aopts = append(aopts, dpu.Advisory())
		}
		dopts = append(dopts, dpu.WithAdaptive(p, aopts...))
	}

	c, err := dpu.New(sc.Nodes, dopts...)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	defer c.Close()
	if trKind != "sim" && sc.Env.Latency != nil {
		// Real transports take the founding latency through the fault
		// surface's delay (the simnet-only founding options cannot
		// apply).
		jitter := *sc.Env.Latency / 2
		if sc.Env.Jitter != nil {
			jitter = *sc.Env.Jitter
		}
		if err := c.SetDelay(*sc.Env.Latency); err != nil {
			return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		if err := c.SetJitter(jitter); err != nil {
			return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
	}
	if sc.Env.Loss != nil {
		if err := c.SetLoss(*sc.Env.Loss); err != nil {
			return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
	}
	// The reject counter is process-wide; the delta across this run is
	// meaningful because runs execute sequentially (the virtual clock
	// guarantees it under sim; the test harness runs scenarios one at a
	// time over real transports).
	rejectedBefore := metrics.Counters()["wire.frames_rejected"]

	d := &driver{sc: sc, c: c, clk: clk, pool: pool, logf: logf, aud: aud,
		logs:    map[int][]dpu.Event{},
		retired: map[int]bool{},
	}
	for i := 0; i < sc.Nodes; i++ {
		if err := d.subscribe(i); err != nil {
			return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
	}
	d.startWorkload()

	var phases []PhaseResult
	var expectFailure error
	for _, ph := range sc.Phases {
		pr, err := d.runPhase(ph)
		phases = append(phases, pr)
		if err != nil {
			expectFailure = fmt.Errorf("scenario %s: %w", sc.Name, err)
			break
		}
	}

	// Drain: workload off, the backlog settles, in-flight switches and
	// view changes complete.
	d.stopWorkload()
	clk.RunFor(sc.Drain)

	finalProto, finalMembers := d.finalStatus()
	virtual := clk.Elapsed()

	// Tear down before auditing: Close ends every subscription stream,
	// which is what lets the drain goroutines finish and the feed
	// quiesce.
	c.Close()
	d.wg.Wait()

	res := &Result{
		Name:           sc.Name,
		Seed:           seed,
		Transport:      trKind,
		Phases:         phases,
		FinalProtocol:  finalProto,
		FinalMembers:   finalMembers,
		RejectedFrames: metrics.Counters()["wire.frames_rejected"] - rejectedBefore,
		VirtualTime:    virtual,
		//dpulint:ignore clocktime wall_ms result reporting measures real elapsed time, deliberately outside the virtual clock
		WallTime: time.Since(wallStart),
	}
	d.mu.Lock()
	logs := d.logs
	aliveStacks := 0
	for id := range logs {
		if !d.retired[id] {
			aliveStacks++
		}
	}
	d.mu.Unlock()
	res.Nodes = aliveStacks

	res.Counts, res.Digest = digest(logs)
	res.Switches = d.referenceSwitches(logs)
	for i := range res.Phases {
		res.Phases[i].Switches = countSwitchesIn(res.Switches, res.Phases[i].Start, res.Phases[i].End)
	}
	if err := aud.Report().Err(); err != nil {
		return res, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	if expectFailure != nil {
		return res, expectFailure
	}
	if err := d.checkFinalExpectations(res); err != nil {
		return res, err
	}
	logf("scenario %s: %d deliveries, %d switches, %d views over %s virtual in %s wall",
		sc.Name, res.Counts.Deliveries, res.Counts.Switches, res.Counts.Views,
		res.VirtualTime, res.WallTime.Round(time.Millisecond))
	return res, nil
}

// driver is the mutable state of one run. Under the virtual clock,
// timer callbacks run inline on the clock-owner goroutine; under the
// wall clock (real transports) they fire concurrently on their own
// goroutines — so everything a callback touches is an atomic or sits
// behind the mutex.
type driver struct {
	sc   *Scenario
	c    *dpu.Cluster
	clk  runClock
	pool *endpointPool // nil under sim: every draw is ""
	logf func(string, ...any)
	aud  *audit.Auditor

	mu      sync.Mutex
	logs    map[int][]dpu.Event // for the digest, the switch trail and min_views
	retired map[int]bool        // crashed or evicted stacks
	wg      sync.WaitGroup

	workloadStopped atomic.Bool
	flapGen         atomic.Int64
}

// subscribe attaches an Events-stream subscription to the stack and
// drains it into the auditor and the per-stack log. Block policy: the
// auditor must see every event, and the drain goroutine always
// consumes. A stack subscribed after the founders is a joiner.
func (d *driver) subscribe(id int) error {
	n, err := d.c.Node(id)
	if err != nil {
		return err
	}
	if id >= d.sc.Nodes {
		d.aud.Join(id)
	}
	sub, err := n.Subscribe(dpu.SubscribeOptions{Events: true, Buffer: 8192, Policy: dpu.Block})
	if err != nil {
		return err
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		for ev := range sub.Events() {
			switch ev.Kind {
			case dpu.EventDelivery:
				d.aud.Deliver(id, ev.Delivery.Origin, ev.Delivery.Data)
			case dpu.EventSwitch:
				d.aud.Switch(id, ev.Switch.Epoch, ev.Switch.Protocol)
			case dpu.EventView:
				d.aud.View(id, ev.View.ID, ev.View.Members)
			}
			d.mu.Lock()
			d.logs[id] = append(d.logs[id], ev)
			d.mu.Unlock()
		}
	}()
	return nil
}

// digest counts the logs' events and FNV-1a-hashes them stack by stack
// in id order: the cheap determinism witness, equal for runs of a seed.
func digest(logs map[int][]dpu.Event) (Counts, uint64) {
	var counts Counts
	h := fnv.New64a()
	for _, id := range slices.Sorted(maps.Keys(logs)) {
		fmt.Fprintf(h, "stack %d\n", id)
		for _, ev := range logs[id] {
			switch ev.Kind {
			case dpu.EventDelivery:
				counts.Deliveries++
				fmt.Fprintf(h, "d %d %q %d\n", ev.Delivery.Origin, ev.Delivery.Data, ev.Delivery.At.UnixNano())
			case dpu.EventSwitch:
				counts.Switches++
				fmt.Fprintf(h, "s %d %s\n", ev.Switch.Epoch, ev.Switch.Protocol)
			case dpu.EventView:
				counts.Views++
				fmt.Fprintf(h, "v %d %v\n", ev.View.ID, ev.View.Members)
			case dpu.EventAdvice:
				counts.Advice++
				// Advice carries engine-side floats; counted but not
				// digested, so the digest stays a pure protocol witness.
			}
		}
	}
	return counts, h.Sum64()
}

// period is the interval between one sender's broadcasts.
func (w Workload) period() time.Duration {
	period := time.Duration(float64(time.Second) / w.Rate)
	if period <= 0 {
		period = time.Millisecond
	}
	return period
}

// maxTicks bounds the broadcasts one sender issues over the run: a tick
// rearms itself one period later until the last phase ends, and each
// phase may run over by the clock's expectation grace.
func (sc *Scenario) maxTicks(grace time.Duration) int {
	if sc.Workload.Rate <= 0 {
		return 1
	}
	var total time.Duration
	for _, ph := range sc.Phases {
		total += ph.Duration + grace
	}
	return int(total/sc.Workload.period()) + 2
}

// startWorkload schedules one self-rearming broadcast chain per sender.
// Each tick runs as a virtual-clock event, so the whole load is part of
// the deterministic schedule.
func (d *driver) startWorkload() {
	w := d.sc.Workload
	if w.Rate <= 0 {
		return
	}
	senders := w.Senders
	if senders <= 0 || senders > d.sc.Nodes {
		senders = d.sc.Nodes
	}
	period := w.period()
	for s := 0; s < senders; s++ {
		s := s
		seq := uint64(0)
		var tick func()
		tick = func() {
			if d.workloadStopped.Load() || d.isRetired(s) {
				return
			}
			n, err := d.c.Node(s)
			if err == nil {
				err = n.Broadcast(context.Background(), audit.Payload(s, seq, w.Payload))
			}
			if err != nil {
				// The stack crashed or was evicted mid-run: its stream ends
				// here, legitimately ragged.
				d.aud.Retire(s)
				return
			}
			seq++
			d.clk.AfterFunc(period, tick)
		}
		// Stagger the chains so senders do not all fire on the same
		// instant.
		d.clk.AfterFunc(time.Duration(s+1)*period/time.Duration(senders+1), tick)
	}
}

func (d *driver) stopWorkload() { d.workloadStopped.Store(true) }

func (d *driver) isRetired(id int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.retired[id]
}

func (d *driver) markRetired(id int) {
	d.aud.Retire(id)
	d.mu.Lock()
	d.retired[id] = true
	d.mu.Unlock()
}

// runPhase applies the phase's environment, schedules its actions and
// flap as clock events, advances the run clock by the phase duration,
// and checks the phase expectation at the boundary (quiescent under
// the virtual clock; a live snapshot over real transports).
func (d *driver) runPhase(ph Phase) (PhaseResult, error) {
	pr := PhaseResult{Name: ph.Name, Start: d.clk.Elapsed()}
	if env := ph.Env; env != nil {
		if env.Loss != nil {
			if err := d.c.SetLoss(*env.Loss); err != nil {
				return pr, fmt.Errorf("phase %s: %w", ph.Name, err)
			}
		}
		if env.Latency != nil {
			if err := d.c.SetDelay(*env.Latency); err != nil {
				return pr, fmt.Errorf("phase %s: %w", ph.Name, err)
			}
		}
		if env.Jitter != nil {
			if err := d.c.SetJitter(*env.Jitter); err != nil {
				return pr, fmt.Errorf("phase %s: %w", ph.Name, err)
			}
		}
	}
	// Action failures are recorded under a lock: wall-clock callbacks
	// run concurrently with each other and with this goroutine.
	var (
		actMu  sync.Mutex
		actErr error
	)
	fail := func(format string, args ...any) {
		actMu.Lock()
		defer actMu.Unlock()
		if actErr == nil {
			actErr = fmt.Errorf("phase %s: %s", ph.Name, fmt.Sprintf(format, args...))
		}
	}
	for _, a := range ph.Actions {
		a := a
		d.clk.AfterFunc(a.At, func() { d.runAction(ph.Name, a, fail) })
	}
	if f := ph.Flap; f != nil {
		d.startFlap(*f, ph.Duration, fail)
	}
	d.clk.RunFor(ph.Duration)
	d.flapGen.Add(1) // any flap chain of this phase stops rearming
	actMu.Lock()
	err := actErr
	actMu.Unlock()
	if err != nil {
		return pr, err
	}
	pr.End = d.clk.Elapsed()
	proto, _ := d.status()
	pr.EndProtocol = proto
	d.logf("phase %-18s %8s..%8s  protocol=%s",
		ph.Name, pr.Start.Truncate(time.Millisecond), pr.End.Truncate(time.Millisecond), proto)
	if want := ph.Expect.Protocol; want != "" && proto != want {
		// Keep polling for the clock's grace before failing: zero under
		// the virtual clock (the boundary is already quiescent), bounded
		// over real sockets (the switch may straddle the boundary by
		// scheduling noise). The extra wall time shifts later phase
		// boundaries, which real-transport runs tolerate by design.
		deadline := d.clk.Elapsed() + d.clk.ExpectGrace()
		for proto != want && d.clk.Elapsed() < deadline {
			d.clk.RunFor(50 * time.Millisecond)
			proto, _ = d.status()
		}
		if proto != want {
			return pr, fmt.Errorf("phase %s: expected convergence to %s, still on %s after %s (+%s grace)",
				ph.Name, want, proto, ph.Duration, d.clk.ExpectGrace())
		}
		pr.EndProtocol = proto
	}
	return pr, nil
}

// runAction executes one scheduled intervention on the clock goroutine.
// Every branch is non-blocking: a blocking wait here would deadlock the
// virtual clock against the progress it is waiting for.
func (d *driver) runAction(phase string, a Action, fail func(string, ...any)) {
	switch a.Action {
	case "add-node", "restart":
		// A restart brings a crashed or evicted member back the way any
		// new machine joins: under a fresh id, through AddNodeAsync.
		what := "add-node"
		if a.Action == "restart" {
			what = fmt.Sprintf("restart %d", a.Node)
			if !d.isRetired(a.Node) {
				fail("%s: the stack must crash or be evicted first", what)
				return
			}
		}
		err := d.c.AddNodeAsync(d.pool.next(), func(n *dpu.Node, err error) {
			if err != nil {
				fail("%s: %v", what, err)
				return
			}
			// The callback runs on the sponsor's executor at the commit:
			// subscribing here catches the joiner's stream from its first
			// event.
			if err := d.subscribe(n.Index()); err != nil {
				fail("%s: subscribe joiner %d: %v", what, n.Index(), err)
			}
		})
		if err != nil {
			fail("%s: %v", what, err)
		}
	case "evict":
		victim := a.Node
		if victim < 0 {
			fail("evict: `node:` is required")
			return
		}
		sponsor, ok := d.lowestRunning(victim)
		if !ok {
			fail("evict %d: no other running stack to order the eviction", victim)
			return
		}
		// The victim's stream legitimately ends at the eviction commit.
		d.markRetired(victim)
		n, err := d.c.Node(sponsor)
		if err == nil {
			err = n.Leave(victim)
		}
		if err != nil {
			fail("evict %d: %v", victim, err)
		}
	case "crash":
		if a.Node < 0 {
			fail("crash: `node:` is required")
			return
		}
		d.markRetired(a.Node)
		n, err := d.c.Node(a.Node)
		if err == nil {
			err = n.Crash()
		}
		if err != nil {
			fail("crash %d: %v", a.Node, err)
		}
	case "switch":
		initiator := a.Node
		if initiator < 0 {
			var ok bool
			initiator, ok = d.lowestRunning(-1)
			if !ok {
				fail("switch: no running stack")
				return
			}
		}
		st := d.c.Stack(initiator)
		if st == nil || !st.Running() {
			fail("switch to %s: stack %d is not running here", a.To, initiator)
			return
		}
		// Fire-and-forget; an unknown name replies at once, inside the phase.
		st.Call(core.Service, core.ChangeProtocol{Protocol: a.To, Reply: func(r core.ChangeReply) {
			if r.Err != nil {
				fail("switch to %s: %v", a.To, r.Err)
			}
		}})
	case "partition":
		if err := d.c.PartitionLink(a.A, a.B); err != nil {
			fail("partition %d-%d: %v", a.A, a.B, err)
		}
	case "heal":
		if err := d.c.HealLink(a.A, a.B); err != nil {
			fail("heal %d-%d: %v", a.A, a.B, err)
		}
	case "partition-oneway":
		if err := d.c.PartitionOneWay(a.A, a.B); err != nil {
			fail("partition-oneway %d->%d: %v", a.A, a.B, err)
		}
	case "heal-oneway":
		if err := d.c.HealOneWay(a.A, a.B); err != nil {
			fail("heal-oneway %d->%d: %v", a.A, a.B, err)
		}
	case "corrupt":
		if err := d.c.SetCorrupt(a.Rate); err != nil {
			fail("corrupt: %v", err)
		}
	case "reorder":
		if err := d.c.SetReorder(a.Rate); err != nil {
			fail("reorder: %v", err)
		}
	case "set-loss":
		if err := d.c.SetLoss(a.Loss); err != nil {
			fail("set-loss: %v", err)
		}
	case "set-delay":
		if err := d.c.SetDelay(a.Delay); err != nil {
			fail("set-delay: %v", err)
		}
	case "set-jitter":
		if err := d.c.SetJitter(a.Jitter); err != nil {
			fail("set-jitter: %v", err)
		}
	}
}

// startFlap breaks and heals one link every half period until the
// phase ends (the generation counter invalidates the chain at the
// boundary, so a flap never leaks into the next phase).
func (d *driver) startFlap(f Flap, duration time.Duration, fail func(string, ...any)) {
	gen := d.flapGen.Load()
	half := f.Period / 2
	if half <= 0 {
		half = 50 * time.Millisecond
	}
	cut := true
	var toggle func()
	toggle = func() {
		if d.flapGen.Load() != gen {
			// The phase ended mid-flap: leave the link healed.
			if err := d.c.HealLink(f.A, f.B); err != nil {
				fail("flap heal %d-%d: %v", f.A, f.B, err)
			}
			return
		}
		var err error
		if cut {
			err = d.c.PartitionLink(f.A, f.B)
		} else {
			err = d.c.HealLink(f.A, f.B)
		}
		if err != nil {
			fail("flap %d-%d: %v", f.A, f.B, err)
			return
		}
		cut = !cut
		d.clk.AfterFunc(half, toggle)
	}
	d.clk.AfterFunc(0, toggle)
}

// lowestRunning returns the lowest-indexed running stack, skipping
// `skip` (pass -1 to skip none).
func (d *driver) lowestRunning(skip int) (int, bool) {
	for id := 0; id < d.c.N(); id++ {
		if id == skip || d.isRetired(id) {
			continue
		}
		if _, err := d.nodeStatus(id); err == nil {
			return id, true
		}
	}
	return -1, false
}

// nodeStatus reads one stack's replacement-layer status. The executor
// answers promptly; the timeout only bounds a wedged stack.
func (d *driver) nodeStatus(id int) (dpu.Status, error) {
	n, err := d.c.Node(id)
	if err != nil {
		return dpu.Status{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return n.Status(ctx)
}

// status snapshots the reference stack's protocol and members. Safe on
// the driver goroutine between RunFor calls: the cluster is quiescent,
// and the stack's executor serves the request promptly.
func (d *driver) status() (string, []int) {
	id, ok := d.lowestRunning(-1)
	if !ok {
		return "", nil
	}
	st, err := d.nodeStatus(id)
	if err != nil {
		return "", nil
	}
	return st.Protocol, st.Members
}

func (d *driver) finalStatus() (string, []int) { return d.status() }

// referenceSwitches extracts the switch sequence of the lowest-indexed
// founder that observed the most switches (the reference trail the
// scenario's switch expectations are checked against). View changes
// make the core re-install the current protocol under a fresh epoch;
// those reinstalls carry the same protocol as the one already running
// and are dropped here so the trail only records real transitions.
func (d *driver) referenceSwitches(logs map[int][]dpu.Event) []SwitchRecord {
	d.mu.Lock()
	defer d.mu.Unlock()
	base := d.clk.Base()
	var best []SwitchRecord
	for id := 0; id < d.sc.Nodes; id++ {
		cur := d.sc.Initial
		var recs []SwitchRecord
		for _, ev := range logs[id] {
			if ev.Kind != dpu.EventSwitch {
				continue
			}
			if ev.Switch.Protocol == cur {
				continue // view-change reinstall, not a transition
			}
			cur = ev.Switch.Protocol
			recs = append(recs, SwitchRecord{
				At:       ev.Switch.At.Sub(base),
				Epoch:    ev.Switch.Epoch,
				Protocol: ev.Switch.Protocol,
				Reissued: ev.Switch.Reissued,
			})
		}
		if len(recs) > len(best) {
			best = recs
		}
	}
	return best
}

func countSwitchesIn(switches []SwitchRecord, start, end time.Duration) int {
	n := 0
	for _, s := range switches {
		if s.At > start && s.At <= end {
			n++
		}
	}
	return n
}

// checkFinalExpectations audits the scenario's end-state demands.
func (d *driver) checkFinalExpectations(res *Result) error {
	ex := d.sc.Expect
	if ex.FinalProtocol != "" && res.FinalProtocol != ex.FinalProtocol {
		return fmt.Errorf("scenario %s: final protocol %s, want %s", d.sc.Name, res.FinalProtocol, ex.FinalProtocol)
	}
	if ex.SwitchSequence != nil {
		var got []string
		for _, s := range res.Switches {
			got = append(got, s.Protocol)
		}
		if len(got) != len(ex.SwitchSequence) {
			return fmt.Errorf("scenario %s: switch sequence %v, want %v", d.sc.Name, got, ex.SwitchSequence)
		}
		for i := range got {
			if got[i] != ex.SwitchSequence[i] {
				return fmt.Errorf("scenario %s: switch sequence %v, want %v", d.sc.Name, got, ex.SwitchSequence)
			}
		}
	}
	if ex.MinSwitches >= 0 && len(res.Switches) < ex.MinSwitches {
		return fmt.Errorf("scenario %s: %d switches, want at least %d", d.sc.Name, len(res.Switches), ex.MinSwitches)
	}
	if ex.MaxSwitches >= 0 && len(res.Switches) > ex.MaxSwitches {
		return fmt.Errorf("scenario %s: %d switches, want at most %d (flap suppression failed)", d.sc.Name, len(res.Switches), ex.MaxSwitches)
	}
	if ex.MinViews >= 0 {
		// Views are counted per stack; the per-stack maximum is the
		// number of commits the longest-lived member observed.
		maxViews := 0
		d.mu.Lock()
		for _, log := range d.logs {
			n := 0
			for _, ev := range log {
				if ev.Kind == dpu.EventView {
					n++
				}
			}
			if n > maxViews {
				maxViews = n
			}
		}
		d.mu.Unlock()
		if maxViews < ex.MinViews {
			return fmt.Errorf("scenario %s: %d committed views observed, want at least %d", d.sc.Name, maxViews, ex.MinViews)
		}
	}
	if ex.MinRejectedFrames >= 0 && res.RejectedFrames < uint64(ex.MinRejectedFrames) {
		return fmt.Errorf("scenario %s: %d frames rejected by the wire checksum, want at least %d",
			d.sc.Name, res.RejectedFrames, ex.MinRejectedFrames)
	}
	return nil
}
