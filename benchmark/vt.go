package main

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/dpu"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/vclock"
)

// vt-replay runs the cluster under vclock.Virtual: the clock's owner
// (this goroutine) is the generator, every broadcast and switch request
// is a clock event, and nothing advances until the stacks are quiescent.
// The same seed therefore gives the same schedule, and the replay is
// repeated to prove it: delivery digests and counter deltas must be
// identical. Its latencies and switch times are virtual milliseconds
// (protocol hops over the simulated LAN plus recovery timers, no host
// noise); set-up and throughput are wall-clock.

const vtDrain = 2 * time.Second // virtual time left for the backlog to settle

// replay is the outcome of one pass over the timeline.
type replay struct {
	wall     time.Duration // of the four phases
	total    uint64
	digest   uint64
	deltas   map[string]uint64 // program counters over the pass
	latMS    []float64         // virtual, per message
	perSec   []float64         // messages completed in each virtual second of the four phases
	switchMS []float64         // virtual, request to the last stack's Switched
	aud      *auditor
	before   snapshot
	after    snapshot
	gauges   []map[string]int64
	reissued int
}

// vtSwitch is what the collector has seen of one epoch's switch.
type vtSwitch struct {
	stacks int   // stacks that reported Switched
	last   int64 // the latest of their instants
}

func replayOnce(spec *workloadSpec, seed int64, phase time.Duration, switches int, limit uint64) (*replay, error) {
	vc := vclock.NewVirtual()
	cl, err := newCluster(spec, groupSize, seed, vc)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	// Block: the collector must see every event, and an executor parked
	// on it simply holds virtual time still.
	subs, err := cl.subscribe(dpu.Block)
	if err != nil {
		return nil, err
	}
	base := vc.Base()
	now := func() int64 { return int64(vc.Now().Sub(base)) }

	var slots slotTable
	var issued atomic.Uint64
	rp := &replay{aud: newAuditor(groupSize, spec.payload, &slots, &issued)}

	// Collector: one goroutine, stamping deliveries with the stacks' own
	// (virtual) delivery instants. It ends when Close has ended every
	// stream.
	var (
		digests  [groupSize]uint64
		switched = map[uint64]*vtSwitch{}
		wg       sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		var dch [groupSize]<-chan dpu.Delivery
		var sch [groupSize]<-chan dpu.SwitchEvent
		for i, s := range subs {
			dch[i], sch[i] = s.Deliveries(), s.Switches()
		}
		onDelivery := func(stack int, d dpu.Delivery, ok bool) {
			if !ok {
				dch[stack] = nil
				return
			}
			at := int64(d.At.Sub(base))
			id, _ := rp.aud.deliver(stack, d.Data, at)
			digests[stack] = mix(mix(digests[stack], id), uint64(at))
		}
		onSwitch := func(stack int, ev dpu.SwitchEvent, ok bool) {
			if !ok {
				sch[stack] = nil
				return
			}
			s := switched[ev.Epoch]
			if s == nil {
				s = &vtSwitch{}
				switched[ev.Epoch] = s
			}
			s.stacks++
			s.last = max(s.last, int64(ev.At.Sub(base)))
			rp.reissued += ev.Reissued
		}
		for dch != [groupSize]<-chan dpu.Delivery{} || sch != [groupSize]<-chan dpu.SwitchEvent{} {
			select {
			case d, ok := <-dch[0]:
				onDelivery(0, d, ok)
			case d, ok := <-dch[1]:
				onDelivery(1, d, ok)
			case d, ok := <-dch[2]:
				onDelivery(2, d, ok)
			case ev, ok := <-sch[0]:
				onSwitch(0, ev, ok)
			case ev, ok := <-sch[1]:
				onSwitch(1, ev, ok)
			case ev, ok := <-sch[2]:
				onSwitch(2, ev, ok)
			}
		}
	}()

	// Generator: one self-rearming chain of clock events per sender.
	ctx := context.Background()
	bufs := newPayloadBuffers(seed, groupSize, spec.payload)
	period := time.Second / vtRatePerStack
	stopped := false
	var next uint64
	for s := 0; s < groupSize; s++ {
		var tick func()
		tick = func() {
			if stopped || (limit > 0 && next >= limit) {
				return
			}
			id := next
			next++
			slots.claim(id).t0 = now()
			stampPayload(bufs[s], id)
			issued.Store(id + 1)
			if err := cl.nodes[s].Broadcast(ctx, bufs[s]); err != nil {
				rp.aud.fail(fmt.Errorf("broadcast %d: %w", id, err))
			}
			vc.AfterFunc(period, tick)
		}
		vc.AfterFunc(time.Duration(s+1)*period/(groupSize+1), tick)
	}

	// Switch requests are clock events too; the call must not block the
	// clock's owner, so completion is read off the Switched streams.
	requested := map[uint64]int64{} // epoch the request should produce → request instant
	epoch := uint64(0)
	requestSwitch := func(protocol string) {
		epoch++
		requested[epoch] = now()
		cl.Stack(0).Call(core.Service, core.ChangeProtocol{Protocol: protocol})
	}

	rp.before = snapshotOf(cl, nil, 0)
	counters := metrics.Counters()
	start := time.Now()
	runPhase := func() {
		// A gauge sample per virtual second, like the wall-clock runs.
		for left := phase; left > 0; left -= time.Second {
			vc.RunFor(min(left, time.Second))
			rp.gauges = append(rp.gauges, metrics.Gauges())
		}
	}
	runPhase() // clean ct
	if err := cl.SetLoss(vtLoss); err != nil {
		return nil, err
	}
	runPhase() // lossy ct: the retransmission path
	if err := cl.SetLoss(0); err != nil {
		return nil, err
	}
	for i := 0; i < switches; i++ {
		target := spec.cycle[i%len(spec.cycle)]
		vc.AfterFunc(time.Duration(i)*phase/time.Duration(switches), func() { requestSwitch(target) })
	}
	runPhase() // the switches
	runPhase() // clean on whatever the cycle ended on
	stopped = true
	rp.wall = time.Since(start)
	vc.RunFor(vtDrain)
	rp.after = snapshotOf(cl, nil, now())
	rp.deltas = map[string]uint64{}
	for name, v := range metrics.Counters() {
		rp.deltas[name] = v - counters[name]
	}

	cl.Close() // ends the subscription streams, which ends the collector
	wg.Wait()
	rp.total = issued.Load()
	rp.aud.finish(rp.total)
	for id := uint64(0); id < rp.total; id++ {
		if s := slots.at(id); s.done != 0 {
			rp.latMS = append(rp.latMS, float64(s.done-s.t0)/1e6)
		}
	}
	for _, w := range windowsOf(&slots, rp.total, 0, 4*int64(phase), int64(time.Second)) {
		rp.perSec = append(rp.perSec, float64(w.count))
	}
	epochs := make([]uint64, 0, len(requested))
	for e := range requested {
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	for _, e := range epochs {
		seen := switched[e]
		if seen == nil || seen.stacks != groupSize {
			rp.aud.fail(fmt.Errorf("switch to epoch %d did not complete on every stack", e))
			continue
		}
		rp.switchMS = append(rp.switchMS, float64(seen.last-requested[e])/1e6)
	}
	for s := range digests {
		rp.digest = mix(rp.digest, digests[s])
	}
	return rp, nil
}

// runVirtual runs vt-replay: the setup cycles, then vtReplays passes
// over the same seeded timeline.
func runVirtual(spec *workloadSpec, seed int64, pl plan) (*result, error) {
	seconds, switches := pl.seconds, vtSwitches
	res := newResult(spec, seed, pl)
	setupBefore, err := setupCycles(spec, seed, (pl.setups+1)/2, pl.messages == 0)
	if err != nil {
		return nil, err
	}

	phase := time.Duration(vtPhaseShare * float64(seconds) * float64(time.Second))
	if pl.messages > 0 {
		// The smoke run: the same four phases, long enough for the
		// message count, which the generator then stops at.
		phase = time.Duration(pl.messages) * time.Second / (2 * groupSize * vtRatePerStack)
		switches = pl.switches
	}
	var reps []*replay
	var wallRates []float64
	for i := 0; i < vtReplays; i++ {
		rp, err := replayOnce(spec, seed, phase, switches, pl.messages)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rp)
		wallRates = append(wallRates, float64(rp.total)/rp.wall.Seconds())
		res.Attempted += int(rp.total) + switches
		res.Failed += rp.aud.failures
		if rp.aud.firstErr != nil {
			res.downgrade("failed", "replay %d audit: %v (%d failures)", i, rp.aud.firstErr, rp.aud.failures)
		}
	}
	for i, rp := range reps[1:] {
		if rp.digest != reps[0].digest || rp.total != reps[0].total {
			res.Failed++
			res.downgrade("failed", "replay %d delivered %d messages with digest %016x, replay 0 delivered %d with %016x",
				i+1, rp.total, rp.digest, reps[0].total, reps[0].digest)
		}
		if !reflect.DeepEqual(rp.deltas, reps[0].deltas) {
			res.Failed++
			res.downgrade("failed", "replay %d counter deltas differ from replay 0: %v", i+1, diffCounters(reps[0].deltas, rp.deltas))
		}
	}
	setupAfter, err := setupCycles(spec, seed+int64(len(setupBefore)), pl.setups/2, false)
	if err != nil {
		return nil, err
	}
	res.EndToEnd["setup_s"] = setupValue(setupBefore, setupAfter)
	rp := reps[0]
	res.note("replayed %d× with seed %d: digest %016x, %d messages, counter deltas identical", vtReplays, seed, rp.digest, rp.total)
	// Messages per *virtual* second, best window: the offered rate unless
	// the protocol falls behind the simulated LAN. What a replay costs the
	// CPU is in the diagnostics and in process.cpu_us_per_msg.
	res.EndToEnd["throughput_msgs_s"] = value{highest(rp.perSec), "msgs/s", spread(rp.perSec)}
	res.Diag["replay_wall_msgs_s"] = value{highest(wallRates), "msgs/s", spread(wallRates)}
	lat := sortedCopy(rp.latMS)
	res.EndToEnd["latency_p50_ms"] = value{V: percentile(lat, 50), Unit: "ms"}
	res.EndToEnd["latency_p99_ms"] = value{V: percentile(lat, 99), Unit: "ms"}
	sw := sortedCopy(rp.switchMS)
	res.EndToEnd["switch_ms_p50"] = value{V: percentile(sw, 50), Unit: "ms"}
	res.PerLayer["switch_ms_p90"] = value{V: percentile(sw, 90), Unit: "ms"}
	res.Diag["latency_samples"] = value{V: float64(len(lat)), Unit: "count"}
	res.Diag["latency_global_max_ms"] = value{V: percentile(lat, 100), Unit: "ms"}
	res.Diag["switches"] = value{V: float64(len(sw)), Unit: "count"}

	layerCounts(res, rp.before, rp.after, float64(len(lat)), rp.gauges)
	res.PerLayer["core.reissued_per_switch"] = value{V: ratio(float64(rp.reissued), float64(len(rp.switchMS))), Unit: "count"}
	return res, nil
}

// diffCounters names the counters whose deltas differ.
func diffCounters(a, b map[string]uint64) []string {
	var out []string
	for name, v := range a {
		if b[name] != v {
			out = append(out, fmt.Sprintf("%s %d≠%d", name, v, b[name]))
		}
	}
	sort.Strings(out)
	return out
}
