// Package audit is the one judge of a run against the paper's claims.
// Its feed is each stack's deliveries, completed switches and installed
// views in publish order (one goroutine per stack may feed), plus, as
// the stacks' kernel.Tracer, their structural events. Report checks
// nine properties, all always on:
//
//   - exactly-once: no stack delivers the same broadcast twice;
//   - total-order: each stack's deliveries are one contiguous window of
//     one reference order, founders anchored at its start and a joiner
//     at its first delivery (a crashed stack's log is a legal prefix);
//   - agreement: every anchored stack that is not retired reaches the
//     end of the reference order, so no correct stack stalls unseen;
//   - no-gaps: the reference order holds every workload sequence number
//     (see Payload) of each sender up to its highest, except for retired
//     senders, whose stream may end ragged;
//   - view-agreement: a view id names one member set, installed after
//     the same number of deliveries on every anchored stack;
//   - switch-agreement: an epoch names one protocol, and each stack's
//     epochs strictly increase;
//   - switch-position: every anchored stack applies the switch to epoch
//     E after the same number of deliveries, so each intermediate
//     configuration is one a single protocol could have produced;
//   - stack-well-formedness (Section 3, weak form): a call parked on an
//     unbound service is released by a later bind;
//   - protocol-operationability (Section 3, weak form): once a module of
//     protocol P is bound on some stack, every traced founder contains a
//     module of P.
//
// Crashed and retired stacks are exempt from agreement and the two
// Section-3 checks, which constrain correct stacks only, and a joiner
// from the last: it never holds a protocol the group replaced before it
// joined.
package audit

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/kernel"
)

// Auditor accumulates one run's feed; it is safe for concurrent use.
type Auditor struct {
	mu     sync.Mutex
	ids    map[string]int // "<origin>\x00<payload>" → index into keys
	keys   []string       // a stack's log holds indices into keys
	stacks map[int]*stackLog

	parked             map[onStack]int  // service → parked calls not yet released
	contains           map[onStack]bool // protocol → a module of it was added
	bound              map[string]bool  // protocols bound on some stack
	nParked, nReleased int
}

type stackLog struct {
	joiner  bool // anchors at its first delivery instead of at 0
	retired bool // crashed or evicted
	traced  bool // in protocol-operationability's group unless a joiner
	log     []int
	// switches and views carry the number of deliveries before them.
	switches, views []mark
}

type mark struct {
	after int
	id    uint64 // epoch or view id
	value string // protocol or member set
}

// onStack names a service or a protocol on one stack.
type onStack struct {
	stack int
	name  string
}

// New returns an empty Auditor.
func New() *Auditor {
	return &Auditor{
		ids:      map[string]int{},
		stacks:   map[int]*stackLog{},
		parked:   map[onStack]int{},
		contains: map[onStack]bool{},
		bound:    map[string]bool{},
	}
}

func (a *Auditor) stack(id int) *stackLog {
	s := a.stacks[id]
	if s == nil {
		s = &stackLog{}
		a.stacks[id] = s
	}
	return s
}

// Deliver records that stack delivered payload, broadcast by origin.
func (a *Auditor) Deliver(stack, origin int, payload []byte) {
	a.mu.Lock()
	defer a.mu.Unlock()
	key := strconv.Itoa(origin) + "\x00" + string(payload)
	i, ok := a.ids[key]
	if !ok {
		i = len(a.keys)
		a.ids[key] = i
		a.keys = append(a.keys, key)
	}
	s := a.stack(stack)
	s.log = append(s.log, i)
}

// Switch records that stack completed the switch to epoch, running
// protocol.
func (a *Auditor) Switch(stack int, epoch uint64, protocol string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := a.stack(stack)
	s.switches = append(s.switches, mark{len(s.log), epoch, protocol})
}

// View records that stack installed view id with members.
func (a *Auditor) View(stack int, id uint64, members []int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := a.stack(stack)
	s.views = append(s.views, mark{len(s.log), id, fmt.Sprint(members)})
}

// Join marks stack as a joiner, before its feed starts: its window of
// the total order anchors at its first delivery, and its switches and
// views before that delivery have no position.
func (a *Auditor) Join(stack int) {
	a.mu.Lock()
	a.stack(stack).joiner = true
	a.mu.Unlock()
}

// Retire marks stack as crashed or evicted. Its workload stream may
// end ragged, so no-gaps skips it as a sender, and agreement and the
// Section-3 checks skip it; the order checks do not.
func (a *Auditor) Retire(stack int) {
	a.mu.Lock()
	a.stack(stack).retired = true
	a.mu.Unlock()
}

// Trace implements kernel.Tracer. TraceCall fires on every service
// call, so every kind Section 3 does not read returns before the lock.
func (a *Auditor) Trace(ev kernel.TraceEvent) {
	switch ev.Kind {
	case kernel.TraceCallBlocked, kernel.TraceCallUnblocked, kernel.TraceBind,
		kernel.TraceModuleAdd, kernel.TraceCrash:
	default:
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	id, s := int(ev.Stack), a.stack(int(ev.Stack))
	s.traced = true
	switch ev.Kind {
	case kernel.TraceCallBlocked:
		a.nParked++
		a.parked[onStack{id, string(ev.Service)}]++
	case kernel.TraceCallUnblocked:
		a.nReleased++
		a.parked[onStack{id, string(ev.Service)}]--
	case kernel.TraceBind:
		a.bound[ev.Protocol] = true
	case kernel.TraceModuleAdd:
		a.contains[onStack{id, ev.Protocol}] = true
	case kernel.TraceCrash:
		s.retired = true
	}
}

// Report is the Auditor's verdict.
type Report struct {
	// Violations lists every breach, each prefixed by its check's name
	// ("total-order: ..."), in a deterministic order; empty when clean.
	Violations []string
	// Parked counts calls parked on an unbound service; Released counts
	// those a later bind flushed.
	Parked, Released int
}

// Err folds the violations into one error (nil when clean).
func (r *Report) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	return fmt.Errorf("invariant violations (%d): %s", len(r.Violations), strings.Join(r.Violations, "; "))
}

func (r *Report) addf(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// Report checks everything fed so far. Call it once the feed has
// quiesced: Section 3's properties are "eventually" ones, and an
// unfinished run reads as a violation.
func (a *Auditor) Report() *Report {
	a.mu.Lock()
	defer a.mu.Unlock()
	rep := &Report{Parked: a.nParked, Released: a.nReleased}
	ids := slices.Sorted(maps.Keys(a.stacks))
	ref, refStack := a.reference(ids)
	offsets := a.checkOrder(ids, ref, refStack, rep)
	for _, id := range ids {
		if off, ok := offsets[id]; ok && !a.stacks[id].retired {
			if short := len(ref) - off - len(a.stacks[id].log); short > 0 {
				rep.addf("agreement: stack %d stops %d deliveries short of the reference order's end (stack %d)", id, short, refStack)
			}
		}
	}
	a.checkGaps(ref, refStack, rep)
	a.checkAgreement(ids, offsets, rep, "view", "view-agreement", "view-agreement",
		func(s *stackLog) []mark { return s.views })
	a.checkAgreement(ids, offsets, rep, "epoch", "switch-agreement", "switch-position",
		func(s *stackLog) []mark { return s.switches })
	a.checkSection3(ids, rep)
	return rep
}

func (a *Auditor) describe(i int) string {
	origin, payload, _ := strings.Cut(a.keys[i], "\x00")
	return fmt.Sprintf("%q from %s", payload, origin)
}

// reference picks the longest founder log as the order every other log
// is audited against, or the longest log of all when no founder
// delivered anything.
func (a *Auditor) reference(ids []int) ([]int, int) {
	var best []int
	bestStack := -1
	for _, founders := range []bool{true, false} {
		for _, id := range ids {
			if s := a.stacks[id]; len(s.log) > len(best) && !(founders && s.joiner) {
				best, bestStack = s.log, id
			}
		}
		if bestStack >= 0 {
			break
		}
	}
	return best, bestStack
}

// checkOrder runs exactly-once and total-order, and returns each
// anchored stack's offset into ref: 0 for a founder, the position of
// its first delivery for a joiner.
func (a *Auditor) checkOrder(ids []int, ref []int, refStack int, rep *Report) map[int]int {
	refIndex := make(map[int]int, len(ref))
	for pos, m := range ref {
		refIndex[m] = pos
	}
	offsets := make(map[int]int, len(ids))
	for _, id := range ids {
		s := a.stacks[id]
		seen := make(map[int]int, len(s.log))
		for pos, m := range s.log {
			if prev, dup := seen[m]; dup {
				rep.addf("exactly-once: stack %d delivered %s twice (positions %d and %d)", id, a.describe(m), prev, pos)
			} else {
				seen[m] = pos
			}
		}

		start := 0
		if s.joiner && id != refStack {
			if len(s.log) == 0 {
				continue // not anchored yet
			}
			pos, ok := refIndex[s.log[0]]
			if !ok {
				rep.addf("total-order: joiner %d starts with %s, absent from the reference order (stack %d)",
					id, a.describe(s.log[0]), refStack)
				continue
			}
			start = pos
		}
		offsets[id] = start
		for i, m := range s.log {
			if rpos := start + i; rpos >= len(ref) {
				rep.addf("total-order: stack %d delivered %d events beyond the reference order's end (first extra: %s)",
					id, len(s.log)-i, a.describe(m))
				break
			} else if m != ref[rpos] {
				rep.addf("total-order: stack %d position %d delivered %s, reference stack %d has %s",
					id, rpos, a.describe(m), refStack, a.describe(ref[rpos]))
				break
			}
		}
	}
	return offsets
}

// checkGaps runs no-gaps over ref: a hole is a message lost across a
// switch, an epoch boundary or a view change.
func (a *Auditor) checkGaps(ref []int, refStack int, rep *Report) {
	seqs := map[int][]uint64{}
	for _, m := range ref {
		_, payload, _ := strings.Cut(a.keys[m], "\x00")
		origin, seq, ok := parsePayload(payload)
		if s := a.stacks[origin]; ok && (s == nil || !s.retired) {
			seqs[origin] = append(seqs[origin], seq)
		}
	}
	for _, o := range slices.Sorted(maps.Keys(seqs)) {
		got := slices.Compact(slices.Sorted(slices.Values(seqs[o])))
		if top := got[len(got)-1]; top+1 != uint64(len(got)) {
			first := uint64(0)
			for first < uint64(len(got)) && got[first] == first {
				first++
			}
			rep.addf("no-gaps: reference stack %d delivered sender %d up to seq %d but is missing %d seq(s), first %d",
				refStack, o, top, top+1-uint64(len(got)), first)
		}
	}
}

// checkAgreement runs the values and positions checks for views or for
// epochs, and holds each stack's ids strictly increasing.
func (a *Auditor) checkAgreement(ids []int, offsets map[int]int, rep *Report, noun, values, positions string, marks func(*stackLog) []mark) {
	type record struct {
		stack, pos int
		value      string
	}
	first, anchor := map[uint64]record{}, map[uint64]record{}
	for _, id := range ids {
		s, ms := a.stacks[id], marks(a.stacks[id])
		off, anchored := offsets[id]
		for i, m := range ms {
			if i > 0 && m.id <= ms[i-1].id {
				rep.addf("%s: stack %d %s ids not increasing (%d after %d)", values, id, noun, m.id, ms[i-1].id)
			}
			r := record{stack: id, pos: off + m.after, value: m.value}
			if f, ok := first[m.id]; !ok {
				first[m.id] = r
			} else if r.value != f.value {
				rep.addf("%s: %s %d is %s on stack %d but %s on stack %d", values, noun, m.id, f.value, f.stack, r.value, id)
			}
			if !anchored || (s.joiner && m.after == 0) {
				continue
			}
			if f, ok := anchor[m.id]; !ok {
				anchor[m.id] = r
			} else if r.pos != f.pos {
				rep.addf("%s: %s %d comes after %d deliveries on stack %d but after %d on stack %d",
					positions, noun, m.id, f.pos, f.stack, r.pos, id)
			}
		}
	}
}

// checkSection3 runs the two Section-3 checks over the correct stacks.
func (a *Auditor) checkSection3(ids []int, rep *Report) {
	keys := slices.SortedFunc(maps.Keys(a.parked), func(x, y onStack) int {
		return cmp.Or(cmp.Compare(x.stack, y.stack), cmp.Compare(x.name, y.name))
	})
	for _, k := range keys {
		if n := a.parked[k]; n > 0 && !a.stacks[k.stack].retired {
			rep.addf("stack-well-formedness: %d call(s) still parked on service %q of stack %d", n, k.name, k.stack)
		}
	}
	for _, p := range slices.Sorted(maps.Keys(a.bound)) {
		for _, id := range ids {
			if s := a.stacks[id]; s.traced && !s.retired && !s.joiner && !a.contains[onStack{id, p}] {
				rep.addf("protocol-operationability: protocol %q was bound somewhere but stack %d never contained a module of it", p, id)
			}
		}
	}
}

// Payload builds the workload payload `w:<origin>:<seq>`, padded to
// size bytes as `w:<origin>:<seq>:xx…x`. no-gaps reads the sender and
// sequence number back; any other payload is outside that check.
func Payload(origin int, seq uint64, size int) []byte {
	p := fmt.Appendf(nil, "w:%d:%d", origin, seq)
	if len(p) < size {
		p = append(p, ':')
		p = append(p, strings.Repeat("x", size-len(p))...)
	}
	return p
}

// parsePayload reads (origin, seq) back from a Payload.
func parsePayload(s string) (int, uint64, bool) {
	rest, ok := strings.CutPrefix(s, "w:")
	originPart, seqPart, ok2 := strings.Cut(rest, ":")
	seqPart, _, _ = strings.Cut(seqPart, ":")
	origin, err := strconv.Atoi(originPart)
	seq, err2 := strconv.ParseUint(seqPart, 10, 64)
	return origin, seq, ok && ok2 && err == nil && err2 == nil
}
