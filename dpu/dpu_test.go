package dpu_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/dpu"
	"repro/internal/consensus"
	"repro/internal/core"
)

const timeout = 30 * time.Second

// bg is the context of test calls that the test's own timeouts bound.
var bg = context.Background()

// group is a cluster under test with a Node handle and a subscription
// on every stack this process hosts (nil entries for remote stacks).
type group struct {
	*dpu.Cluster
	node []*dpu.Node
	sub  []*dpu.Subscription
}

// newGroup builds a cluster, closes it with the test, and takes the
// handles and subscriptions before anything is broadcast: a subscription
// observes events from the moment it is taken and does not replay
// history.
func newGroup(t *testing.T, n int, opts ...dpu.Option) *group {
	t.Helper()
	c, err := dpu.New(n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	g := &group{Cluster: c, node: make([]*dpu.Node, c.N()), sub: make([]*dpu.Subscription, c.N())}
	for i := range g.node {
		n, err := c.Node(i)
		if errors.Is(err, dpu.ErrRemoteStack) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		// Room for every event of the largest test burst, so DropOldest
		// never discards one before the test reads it.
		so := dpu.SubscribeOptions{Deliveries: true, Switches: true, Views: true, Buffer: 2048}
		sub, err := n.Subscribe(so)
		if errors.Is(err, dpu.ErrNoMembership) {
			so.Views = false
			sub, err = n.Subscribe(so)
		}
		if err != nil {
			t.Fatal(err)
		}
		g.node[i], g.sub[i] = n, sub
	}
	return g
}

// status reads one stack's replacement-layer status.
func (g *group) status(t *testing.T, stack int) dpu.Status {
	t.Helper()
	ctx, cancel := context.WithTimeout(bg, timeout)
	defer cancel()
	st, err := g.node[stack].Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// drain collects k deliveries from a stack's subscription.
func (g *group) drain(t *testing.T, stack, k int) []dpu.Delivery {
	t.Helper()
	return drainSub(t, g.sub[stack], k)
}

// drainSub collects k deliveries from one subscription.
func drainSub(t *testing.T, sub *dpu.Subscription, k int) []dpu.Delivery {
	t.Helper()
	out := make([]dpu.Delivery, 0, k)
	deadline := time.After(timeout)
	for len(out) < k {
		select {
		case d, ok := <-sub.Deliveries():
			if !ok {
				t.Fatalf("delivery stream closed after %d of %d", len(out), k)
			}
			out = append(out, d)
		case <-deadline:
			t.Fatalf("timed out after %d of %d deliveries", len(out), k)
		}
	}
	return out
}

func (g *group) waitSwitch(t *testing.T, stack int) dpu.SwitchEvent {
	t.Helper()
	select {
	case ev := <-g.sub[stack].Switches():
		return ev
	case <-time.After(timeout):
		t.Fatalf("stack %d: no switch event", stack)
		return dpu.SwitchEvent{}
	}
}

// requestChange initiates a protocol change from a stack without
// waiting for it, so the broadcasts that follow race the switch.
func (g *group) requestChange(stack int, protocol string) {
	g.Stack(stack).Call(core.Service, core.ChangeProtocol{Protocol: protocol})
}

func (g *group) waitView(t *testing.T, stack int) dpu.View {
	t.Helper()
	select {
	case v := <-g.sub[stack].Views():
		return v
	case <-time.After(timeout):
		t.Fatalf("stack %d: no view", stack)
		return dpu.View{}
	}
}

func TestQuickstartFlow(t *testing.T) {
	c := newGroup(t, 3, dpu.WithSeed(1))
	if c.N() != 3 {
		t.Fatalf("N = %d", c.N())
	}
	if err := c.node[0].Broadcast(bg, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ds := c.drain(t, i, 1)
		if ds[0].Origin != 0 || string(ds[0].Data) != "hello" {
			t.Errorf("stack %d got %+v", i, ds[0])
		}
	}
}

func TestTotalOrderAcrossLiveSwitch(t *testing.T) {
	c := newGroup(t, 3, dpu.WithSeed(2))
	const pre, post = 20, 20
	for k := 0; k < pre; k++ {
		c.node[k%3].Broadcast(bg, []byte(fmt.Sprintf("pre-%d", k)))
	}
	c.requestChange(1, dpu.ProtocolSequencer)
	for k := 0; k < post; k++ {
		c.node[k%3].Broadcast(bg, []byte(fmt.Sprintf("post-%d", k)))
	}
	var ref []string
	for i := 0; i < 3; i++ {
		ds := c.drain(t, i, pre+post)
		seq := make([]string, len(ds))
		for k, d := range ds {
			seq[k] = fmt.Sprintf("%d:%s", d.Origin, d.Data)
		}
		if ref == nil {
			ref = seq
			continue
		}
		for k := range ref {
			if seq[k] != ref[k] {
				t.Fatalf("stack %d diverges at %d: %q vs %q", i, k, seq[k], ref[k])
			}
		}
	}
	for i := 0; i < 3; i++ {
		ev := c.waitSwitch(t, i)
		if ev.Protocol != dpu.ProtocolSequencer || ev.Epoch != 1 {
			t.Errorf("stack %d switch event %+v", i, ev)
		}
		if st := c.status(t, i); st.Protocol != dpu.ProtocolSequencer {
			t.Errorf("stack %d status %+v", i, st)
		}
	}
}

func TestInitialProtocolOption(t *testing.T) {
	c := newGroup(t, 3, dpu.WithSeed(3), dpu.WithInitialProtocol(dpu.ProtocolToken))
	if st := c.status(t, 0); st.Protocol != dpu.ProtocolToken || st.Epoch != 0 {
		t.Errorf("status = %+v", st)
	}
	c.node[2].Broadcast(bg, []byte("tok"))
	c.drain(t, 0, 1)
}

func TestMembershipViewsAcrossSwitch(t *testing.T) {
	c := newGroup(t, 3, dpu.WithSeed(4), dpu.WithMembership())
	// A membership change, then a protocol switch, then another change:
	// GM must keep working, unaware of the replacement — and since views
	// now drive the stack, the evicted member halts and a NEW node joins
	// at runtime instead of a stale id resurrecting.
	if err := c.node[0].Leave(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if v := c.waitView(t, i); v.ID != 1 || len(v.Members) != 2 {
			t.Errorf("stack %d view %+v", i, v)
		}
	}
	// The evicted stack halts once it publishes the view it was removed
	// in; its handle reports ErrNotRunning.
	deadline := time.Now().Add(timeout)
	for {
		if _, err := c.Node(2); errors.Is(err, dpu.ErrNotRunning) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("evicted stack 2 still accepts operations")
		}
		time.Sleep(time.Millisecond)
	}
	sctx, cancel := context.WithTimeout(bg, timeout)
	defer cancel()
	if _, err := c.ChangeProtocolAll(sctx, dpu.ProtocolSequencer); err != nil {
		t.Fatal(err)
	}
	node, err := c.AddNode(sctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if node.Index() != 3 {
		t.Errorf("assigned member id %d, want 3", node.Index())
	}
	for _, i := range []int{0, 1} {
		if v := c.waitView(t, i); v.ID != 2 || len(v.Members) != 3 {
			t.Errorf("stack %d view after switch %+v", i, v)
		}
	}
	st, err := node.Status(sctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Protocol != dpu.ProtocolSequencer || st.ViewID != 2 || len(st.Members) != 3 {
		t.Errorf("joiner status %+v", st)
	}
}

func TestCrashMinorityServiceContinues(t *testing.T) {
	c := newGroup(t, 3, dpu.WithSeed(5))
	c.node[0].Broadcast(bg, []byte("before"))
	c.drain(t, 0, 1)
	c.drain(t, 1, 1)
	if err := c.node[2].Crash(); err != nil {
		t.Fatal(err)
	}
	c.node[0].Broadcast(bg, []byte("after"))
	for _, i := range []int{0, 1} {
		ds := c.drain(t, i, 1)
		if string(ds[0].Data) != "after" {
			t.Errorf("stack %d got %q", i, ds[0].Data)
		}
	}
	if err := c.node[2].Broadcast(bg, nil); err == nil {
		t.Error("Broadcast on crashed stack succeeded")
	}
}

func TestPartitionHealsAndTrafficResumes(t *testing.T) {
	c := newGroup(t, 3, dpu.WithSeed(6))
	if err := c.PartitionLink(0, 2); err != nil {
		t.Fatal(err)
	}
	c.node[1].Broadcast(bg, []byte("through-partition"))
	// 1 still reaches both sides of the cut and rbcast relays consensus
	// decisions through it, so this must deliver everywhere.
	for i := 0; i < 3; i++ {
		c.drain(t, i, 1)
	}
	if err := c.HealLink(0, 2); err != nil {
		t.Fatal(err)
	}
	c.node[0].Broadcast(bg, []byte("after-heal"))
	for i := 0; i < 3; i++ {
		c.drain(t, i, 1)
	}
}

func TestConsensusVariantSwitch(t *testing.T) {
	// The consensus-replacement extension: switch to a CT variant that
	// runs on a separate consensus protocol with a fixed-leaning
	// coordinator. create_module recursion builds the new consensus
	// module as a required service.
	c := newGroup(t, 3, dpu.WithSeed(7),
		dpu.WithConsensusVariant("abcast/ct-fixed", consensus.Fixed))
	c.node[0].Broadcast(bg, []byte("on-rotating"))
	for i := 0; i < 3; i++ {
		c.drain(t, i, 1)
	}
	c.requestChange(0, "abcast/ct-fixed")
	for i := 0; i < 3; i++ {
		ev := c.waitSwitch(t, i)
		if ev.Protocol != "abcast/ct-fixed" {
			t.Errorf("stack %d switched to %q", i, ev.Protocol)
		}
	}
	c.node[1].Broadcast(bg, []byte("on-fixed"))
	for i := 0; i < 3; i++ {
		ds := c.drain(t, i, 1)
		if string(ds[0].Data) != "on-fixed" {
			t.Errorf("stack %d got %q", i, ds[0].Data)
		}
	}
}

func TestChangeToUnknownProtocolIsIgnoredButHarmless(t *testing.T) {
	c := newGroup(t, 3, dpu.WithSeed(8))
	c.requestChange(0, "abcast/not-registered")
	c.node[0].Broadcast(bg, []byte("still-works"))
	for i := 0; i < 3; i++ {
		ds := c.drain(t, i, 1)
		if string(ds[0].Data) != "still-works" {
			t.Errorf("stack %d got %q", i, ds[0].Data)
		}
	}
	if st := c.status(t, 0); st.Epoch != 0 {
		t.Errorf("epoch advanced on unknown protocol: %+v", st)
	}
}

func TestLargePayloadRoundtrip(t *testing.T) {
	c := newGroup(t, 2, dpu.WithSeed(9))
	payload := bytes.Repeat([]byte{0xAB}, 32*1024)
	c.node[1].Broadcast(bg, payload)
	ds := c.drain(t, 0, 1)
	if !bytes.Equal(ds[0].Data, payload) {
		t.Error("payload corrupted")
	}
}

func TestInvalidArguments(t *testing.T) {
	if _, err := dpu.New(0); err == nil {
		t.Error("New(0) succeeded")
	}
	c := newGroup(t, 2, dpu.WithSeed(10))
	for _, i := range []int{5, -1, 99} {
		if _, err := c.Node(i); !errors.Is(err, dpu.ErrOutOfRange) {
			t.Errorf("Node(%d) = %v, want ErrOutOfRange", i, err)
		}
	}
}

func TestProtocolsList(t *testing.T) {
	ps := dpu.Protocols()
	if len(ps) != 3 {
		t.Fatalf("Protocols = %v", ps)
	}
}

func TestCloseIsIdempotentAndClosesChannels(t *testing.T) {
	c := newGroup(t, 2, dpu.WithSeed(11))
	c.Close()
	c.Close()
	if _, ok := <-c.sub[0].Deliveries(); ok {
		t.Error("delivery stream not closed")
	}
}
