package audit

import (
	"strings"
	"testing"

	"repro/internal/kernel"
)

// Synthetic-feed self-tests: each test feeds a run containing exactly
// one violation and asserts the matching check names it, so a green
// corpus run means the properties were enforced, not skipped.

// event is one entry of a stack's synthetic feed.
type event struct {
	kind     byte // 'd'elivery, 's'witch, 'v'iew
	origin   int
	payload  string
	id       uint64 // switch epoch or view id
	protocol string
	members  []int
}

func deliver(origin int, payload string) event {
	return event{kind: 'd', origin: origin, payload: payload}
}

func switchTo(epoch uint64, protocol string) event {
	return event{kind: 's', id: epoch, protocol: protocol}
}

func view(id uint64, members ...int) event {
	return event{kind: 'v', id: id, members: members}
}

// cleanLogs builds three identical stack feeds of 12 workload
// deliveries (senders 0–2, seqs 0–3) that satisfy every check: the
// baseline each test perturbs.
func cleanLogs() map[int][]event {
	logs := map[int][]event{}
	for stack := 0; stack < 3; stack++ {
		var log []event
		for seq := 0; seq < 4; seq++ {
			for origin := 0; origin < 3; origin++ {
				log = append(log, deliver(origin, string(Payload(origin, uint64(seq), 0))))
			}
		}
		logs[stack] = log
	}
	return logs
}

// insert returns log with e placed before position pos.
func insert(log []event, pos int, e event) []event {
	out := append([]event(nil), log[:pos]...)
	out = append(out, e)
	return append(out, log[pos:]...)
}

// feed replays logs into a fresh Auditor; joiners are marked before
// their feed starts.
func feed(logs map[int][]event, joiners ...int) *Auditor {
	a := New()
	for _, j := range joiners {
		a.Join(j)
	}
	for stack := 0; stack < 8; stack++ {
		for _, e := range logs[stack] {
			switch e.kind {
			case 'd':
				a.Deliver(stack, e.origin, []byte(e.payload))
			case 's':
				a.Switch(stack, e.id, e.protocol)
			case 'v':
				a.View(stack, e.id, e.members)
			}
		}
	}
	return a
}

func wantClean(t *testing.T, rep *Report) {
	t.Helper()
	if err := rep.Err(); err != nil {
		t.Fatalf("clean run reported violations: %v", err)
	}
}

func wantViolation(t *testing.T, rep *Report, check string, mentions ...string) {
	t.Helper()
	for _, v := range rep.Violations {
		if !strings.HasPrefix(v, check+":") {
			continue
		}
		for _, m := range mentions {
			if !strings.Contains(v, m) {
				t.Fatalf("%s violation does not mention %q: %s", check, m, v)
			}
		}
		t.Logf("caught: %s", v)
		return
	}
	t.Fatalf("no %s violation among: %v", check, rep.Violations)
}

func TestCleanBaseline(t *testing.T) {
	logs := cleanLogs()
	for stack := range logs {
		logs[stack] = insert(logs[stack], 6, switchTo(1, "abcast/seq"))
		logs[stack] = append(logs[stack], view(2, 0, 1, 2))
	}
	rep := feed(logs).Report()
	wantClean(t, rep)
	if rep.Parked != 0 || rep.Released != 0 {
		t.Fatalf("parked/released = %d/%d with no tracer feed", rep.Parked, rep.Released)
	}
}

func TestCatchesTotalOrderViolation(t *testing.T) {
	logs := cleanLogs()
	// Stack 2 swaps two adjacent deliveries: same set, different order.
	logs[2][4], logs[2][5] = logs[2][5], logs[2][4]
	wantViolation(t, feed(logs).Report(), "total-order", "stack 2 position 4")
}

func TestCatchesDuplicateDelivery(t *testing.T) {
	logs := cleanLogs()
	// Stack 1 delivers the same broadcast twice (e.g. reissued across a
	// switch without dedup).
	logs[1] = append(logs[1], logs[1][3])
	wantViolation(t, feed(logs).Report(), "exactly-once", "stack 1")
}

// dropEverywhere removes one payload from every stack's feed: the group
// agrees on an order that skips it.
func dropEverywhere(logs map[int][]event, payload string) {
	for stack := range logs {
		var pruned []event
		for _, e := range logs[stack] {
			if e.payload != payload {
				pruned = append(pruned, e)
			}
		}
		logs[stack] = pruned
	}
}

func TestCatchesDeliveryGap(t *testing.T) {
	logs := cleanLogs()
	// Sender 1's seq 2 was dropped across a switch, not reordered.
	dropEverywhere(logs, "w:1:2")
	wantViolation(t, feed(logs).Report(), "no-gaps", "sender 1", "first 2")
}

func TestExemptsRetiredSenders(t *testing.T) {
	logs := cleanLogs()
	dropEverywhere(logs, "w:1:2")
	a := feed(logs)
	a.Retire(1)
	wantClean(t, a.Report())
}

func TestCatchesStalledStack(t *testing.T) {
	logs := cleanLogs()
	// Stack 1 stopped delivering after a legal prefix: total-order
	// accepts the prefix, agreement does not.
	logs[1] = logs[1][:7]
	wantViolation(t, feed(logs).Report(), "agreement", "stack 1 ", "5 deliveries short")
	// A crashed or evicted stack may stop anywhere.
	a := feed(logs)
	a.Retire(1)
	wantClean(t, a.Report())
	// A joiner's window must reach the end too.
	logs = cleanLogs()
	logs[3] = append([]event(nil), logs[0][6:10]...)
	wantViolation(t, feed(logs, 3).Report(), "agreement", "stack 3 ", "2 deliveries short")
}

func TestCatchesViewDisagreement(t *testing.T) {
	logs := cleanLogs()
	// Same view id, different member sets on two stacks.
	logs[0] = append(logs[0], view(2, 0, 1, 2))
	logs[1] = append(logs[1], view(2, 0, 1))
	wantViolation(t, feed(logs).Report(), "view-agreement", "is [0 1 2] on stack 0 but [0 1] on stack 1")
}

func TestCatchesViewCutDisagreement(t *testing.T) {
	logs := cleanLogs()
	// Identical members but installed at different commit cuts: stack 0
	// installs after all 12 deliveries, stack 1 after only 6.
	logs[0] = append(logs[0], view(2, 0, 1, 2))
	logs[1] = append(logs[1][:6:6], view(2, 0, 1, 2))
	wantViolation(t, feed(logs).Report(), "view-agreement", "after 12 deliveries on stack 0 but after 6 on stack 1")
}

func TestCatchesSwitchDisagreement(t *testing.T) {
	logs := cleanLogs()
	// Same epoch, different protocols.
	logs[0] = append(logs[0], switchTo(2, "abcast/ct"))
	logs[1] = append(logs[1], switchTo(2, "abcast/seq"))
	wantViolation(t, feed(logs).Report(), "switch-agreement", "epoch 2")
}

func TestCatchesNonMonotonicEpochs(t *testing.T) {
	logs := cleanLogs()
	logs[0] = append(logs[0], switchTo(3, "abcast/ct"), switchTo(2, "abcast/seq"))
	wantViolation(t, feed(logs).Report(), "switch-agreement", "not increasing")
}

func TestCatchesSwitchAtDifferentPositions(t *testing.T) {
	logs := cleanLogs()
	// Every stack agrees on the order and on the protocol of epoch 1,
	// but stack 2 applies the switch two deliveries later: for those two
	// messages the group ran two protocols at once.
	for stack := range logs {
		pos := 6
		if stack == 2 {
			pos = 8
		}
		logs[stack] = insert(logs[stack], pos, switchTo(1, "abcast/seq"))
	}
	rep := feed(logs).Report()
	wantViolation(t, rep, "switch-position", "after 6 deliveries on stack 0", "after 8 on stack 2")
	for _, v := range rep.Violations {
		if !strings.HasPrefix(v, "switch-position:") {
			t.Fatalf("only switch-position should fire, got: %s", v)
		}
	}
}

func TestJoinerWindow(t *testing.T) {
	logs := cleanLogs()
	// Stack 3 joined late: it delivered a contiguous suffix of the
	// reference order. That is legal — its window anchors at its first
	// delivery.
	logs[3] = append([]event(nil), logs[0][6:]...)
	wantClean(t, feed(logs, 3).Report())
	// But a joiner that skips a message inside its window is a
	// total-order violation.
	logs[3] = append(append([]event(nil), logs[0][6:8]...), logs[0][9:]...)
	wantViolation(t, feed(logs, 3).Report(), "total-order", "stack 3")
	// Fed as a founder, the same suffix is out of order at position 0.
	logs[3] = append([]event(nil), logs[0][6:]...)
	wantViolation(t, feed(logs).Report(), "total-order", "stack 3 position 0")
}

func TestLateJoinerSwitchPosition(t *testing.T) {
	logs := cleanLogs()
	for stack := range logs {
		logs[stack] = insert(logs[stack], 9, switchTo(2, "abcast/seq"))
		logs[stack] = insert(logs[stack], 3, switchTo(1, "abcast/token"))
	}
	// Stack 3 joins after epoch 1 and before its first delivery (the
	// group's seventh) it reports the epoch it landed in, which has no
	// position yet; epoch 2 it applies after its third delivery — the
	// group's ninth, as everywhere else.
	logs[3] = append([]event{switchTo(1, "abcast/token")}, logs[0][7:]...)
	wantClean(t, feed(logs, 3).Report())

	// Applying epoch 2 one delivery late is caught for the joiner too.
	logs[3] = []event{switchTo(1, "abcast/token")}
	for _, e := range logs[0][7:] {
		if e.kind == 'd' {
			logs[3] = append(logs[3], e)
		}
	}
	logs[3] = insert(logs[3], 5, switchTo(2, "abcast/seq"))
	wantViolation(t, feed(logs, 3).Report(), "switch-position", "epoch 2", "stack 3")
}

func TestPayloadRoundTrip(t *testing.T) {
	for _, size := range []int{0, 8, 24} {
		p := Payload(12, 345, size)
		if size > 8 && len(p) != size {
			t.Fatalf("Payload(size %d) has %d bytes", size, len(p))
		}
		origin, seq, ok := parsePayload(string(p))
		if !ok || origin != 12 || seq != 345 {
			t.Fatalf("parsePayload(%q) = %d, %d, %v", p, origin, seq, ok)
		}
	}
	for _, s := range []string{"hello-0", "w:", "w:x:1", "w:1", "w:1:y", "msg-0001"} {
		if _, _, ok := parsePayload(s); ok {
			t.Fatalf("parsePayload(%q) accepted a non-workload payload", s)
		}
	}
}

// TestConcurrentFeed feeds each stack from its own goroutine while a
// tracer goroutine reports structural events, as the scenario driver
// and a traced cluster do.
func TestConcurrentFeed(t *testing.T) {
	a, logs := New(), cleanLogs()
	done := make(chan struct{})
	for stack, log := range logs {
		go func() {
			defer func() { done <- struct{}{} }()
			for _, e := range log {
				a.Deliver(stack, e.origin, []byte(e.payload))
			}
			a.Switch(stack, 1, "abcast/seq")
		}()
	}
	go func() {
		defer func() { done <- struct{}{} }()
		for stack := 0; stack < 3; stack++ {
			a.Trace(kernel.TraceEvent{Stack: kernel.Addr(stack), Kind: kernel.TraceModuleAdd, Protocol: "abcast/seq"})
			a.Trace(kernel.TraceEvent{Stack: kernel.Addr(stack), Kind: kernel.TraceBind, Protocol: "abcast/seq"})
			a.Trace(kernel.TraceEvent{Stack: kernel.Addr(stack), Kind: kernel.TraceCall})
		}
	}()
	for range len(logs) + 1 {
		<-done
	}
	wantClean(t, a.Report())
}
