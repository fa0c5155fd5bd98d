package dpu_test

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/dpu"
	"repro/internal/transport"
	"repro/internal/transport/transporttest"
)

// collector drains one stack's delivery stream into an ordered log.
type collector struct {
	mu  sync.Mutex
	seq []string
}

func (col *collector) run(sub *dpu.Subscription) {
	for d := range sub.Deliveries() {
		col.mu.Lock()
		col.seq = append(col.seq, fmt.Sprintf("%d:%s", d.Origin, d.Data))
		col.mu.Unlock()
	}
}

func (col *collector) snapshot() []string {
	col.mu.Lock()
	defer col.mu.Unlock()
	return append([]string(nil), col.seq...)
}

// suffixFrom returns the slice of seq starting at the first occurrence
// of marker (nil when the marker has not been delivered).
func suffixFrom(seq []string, marker string) []string {
	for i, s := range seq {
		if s == marker {
			return seq[i:]
		}
	}
	return nil
}

// waitForMarker blocks until every collector has delivered the marker,
// so messages broadcast afterwards are ordered strictly behind it.
func waitForMarker(t *testing.T, cols map[int]*collector, marker string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		done := true
		for _, col := range cols {
			if suffixFrom(col.snapshot(), marker) == nil {
				done = false
				break
			}
		}
		if done {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for marker %q", marker)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func digestOf(seq []string) string {
	h := sha256.New()
	for _, s := range seq {
		fmt.Fprintln(h, s)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// collectOn subscribes a Block-policy collector on the node.
func collectOn(t *testing.T, n *dpu.Node) *collector {
	t.Helper()
	sub, err := n.Subscribe(dpu.SubscribeOptions{Deliveries: true, Buffer: 4096, Policy: dpu.Block})
	if err != nil {
		t.Fatal(err)
	}
	col := &collector{}
	go col.run(sub)
	return col
}

// waitSuffixAgreement waits until every collector has delivered a
// suffix starting at marker containing want entries, then asserts the
// suffixes are identical (sequence digests).
func waitSuffixAgreement(t *testing.T, cols map[int]*collector, marker string, want int) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		done := true
		for _, col := range cols {
			if len(suffixFrom(col.snapshot(), marker)) < want {
				done = false
				break
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			for id, col := range cols {
				t.Logf("stack %d: suffix %d of %d", id, len(suffixFrom(col.snapshot(), marker)), want)
			}
			t.Fatal("timed out waiting for suffix agreement")
		}
		time.Sleep(2 * time.Millisecond)
	}
	var refID int
	var ref []string
	for id, col := range cols {
		suffix := suffixFrom(col.snapshot(), marker)[:want]
		if ref == nil {
			refID, ref = id, suffix
			continue
		}
		if digestOf(suffix) != digestOf(ref) {
			t.Fatalf("stack %d suffix digest %s != stack %d digest %s\n%v\nvs\n%v",
				id, digestOf(suffix), refID, digestOf(ref), suffix, ref)
		}
	}
}

// TestAddNodeDeliversSameSuffix is the elastic-membership acceptance
// scenario: a node added at runtime delivers the exact totally-ordered
// suffix the founding members deliver, verified by sequence digests —
// while traffic keeps flowing through the join.
func TestAddNodeDeliversSameSuffix(t *testing.T) {
	ctx := context.Background()
	c, err := dpu.New(3, dpu.WithSeed(41), dpu.WithMembership())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cols := make(map[int]*collector)
	nodes := make(map[int]*dpu.Node)
	for i := 0; i < 3; i++ {
		n, err := c.Node(i)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		cols[i] = collectOn(t, n)
	}
	// Pre-join traffic the newcomer must NOT be required to deliver.
	for k := 0; k < 30; k++ {
		if err := nodes[k%3].Broadcast(ctx, []byte(fmt.Sprintf("pre-%d", k))); err != nil {
			t.Fatal(err)
		}
	}

	jctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	joiner, err := c.AddNode(jctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if got := joiner.Index(); got != 3 {
		t.Fatalf("joiner id %d, want 3", got)
	}
	nodes[3] = joiner
	cols[3] = collectOn(t, joiner)

	// Post-join traffic from everyone, including the newcomer, anchored
	// by a marker broadcast after the join commit.
	marker := "0:anchor"
	if err := nodes[0].Broadcast(ctx, []byte("anchor")); err != nil {
		t.Fatal(err)
	}
	waitForMarker(t, cols, marker)
	const post = 40
	for k := 0; k < post; k++ {
		if err := nodes[k%4].Broadcast(ctx, []byte(fmt.Sprintf("post-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	waitSuffixAgreement(t, cols, marker, post+1)

	// The three founders must additionally agree on the FULL sequence.
	full := map[int]*collector{0: cols[0], 1: cols[1], 2: cols[2]}
	first := cols[0].snapshot()[0]
	waitSuffixAgreement(t, full, first, 30+post+1)
}

// TestAutoEvictInstallsIdenticalViews crashes a member while a protocol
// switch is in flight: the failure detector's suspicion is turned into
// an ordered eviction (WithAutoEvict), and every survivor installs the
// identical view — with service continuing on the new protocol.
func TestAutoEvictInstallsIdenticalViews(t *testing.T) {
	ctx := context.Background()
	c, err := dpu.New(3, dpu.WithSeed(42), dpu.WithMembership(), dpu.WithAutoEvict())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	nodes := make([]*dpu.Node, 3)
	subs := make([]*dpu.Subscription, 3)
	for i := 0; i < 3; i++ {
		if nodes[i], err = c.Node(i); err != nil {
			t.Fatal(err)
		}
		if subs[i], err = nodes[i].Subscribe(dpu.SubscribeOptions{Views: true, Buffer: 64}); err != nil {
			t.Fatal(err)
		}
	}
	if err := nodes[2].Crash(); err != nil {
		t.Fatal(err)
	}
	// Concurrent protocol switch while the eviction is being proposed.
	sctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	if _, err := nodes[0].ChangeProtocol(sctx, dpu.ProtocolSequencer); err != nil {
		t.Fatal(err)
	}

	views := make([]dpu.View, 2)
	for _, i := range []int{0, 1} {
		select {
		case v := <-subs[i].Views():
			views[i] = v
		case <-time.After(timeout):
			t.Fatalf("stack %d: no eviction view", i)
		}
	}
	if fmt.Sprint(views[0]) != fmt.Sprint(views[1]) {
		t.Fatalf("divergent views: %+v vs %+v", views[0], views[1])
	}
	if views[0].ID != 1 || len(views[0].Members) != 2 {
		t.Fatalf("eviction view %+v", views[0])
	}
	for _, m := range views[0].Members {
		if m == 2 {
			t.Fatalf("crashed member still in view %+v", views[0])
		}
	}
	// Service continues for the survivors on the new protocol.
	cols := map[int]*collector{0: collectOn(t, nodes[0]), 1: collectOn(t, nodes[1])}
	if err := nodes[1].Broadcast(ctx, []byte("after-evict")); err != nil {
		t.Fatal(err)
	}
	waitSuffixAgreement(t, cols, "1:after-evict", 1)
	st, err := nodes[0].Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Protocol != dpu.ProtocolSequencer || len(st.Members) != 2 {
		t.Fatalf("survivor status %+v", st)
	}
}

// TestEvictConfirmed exercises the confirmed eviction path: Evict
// blocks until the view change commits, survivors agree, and the
// evicted (still live) member is halted after observing its own
// removal.
func TestEvictConfirmed(t *testing.T) {
	ctx := context.Background()
	c, err := dpu.New(3, dpu.WithSeed(43), dpu.WithMembership())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n0, err := c.Node(0)
	if err != nil {
		t.Fatal(err)
	}
	ectx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	v, err := n0.Evict(ectx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != 1 || len(v.Members) != 2 {
		t.Fatalf("eviction view %+v", v)
	}
	// Evicting an absent member commits as a no-op with the same view.
	v2, err := n0.Evict(ectx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v2.ID != v.ID || len(v2.Members) != len(v.Members) {
		t.Fatalf("no-op eviction view %+v, want %+v", v2, v)
	}
	// The evicted stack halts once its final view is published.
	deadline := time.Now().Add(timeout)
	for {
		if _, err := c.Node(1); errors.Is(err, dpu.ErrNotRunning) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("evicted stack 1 still accepts operations")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJoinDuringProtocolSwitch races AddNode against an in-flight
// ChangeProtocolAll: whatever order the two commits take in the total
// order, the joiner must land in a coherent epoch — converging to the
// founders' protocol and view — and the post-anchor suffix must be
// identical everywhere.
func TestJoinDuringProtocolSwitch(t *testing.T) {
	ctx := context.Background()
	c, err := dpu.New(3, dpu.WithSeed(44), dpu.WithMembership())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cols := make(map[int]*collector)
	nodes := make(map[int]*dpu.Node)
	for i := 0; i < 3; i++ {
		n, err := c.Node(i)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		cols[i] = collectOn(t, n)
	}
	for k := 0; k < 20; k++ {
		if err := nodes[k%3].Broadcast(ctx, []byte(fmt.Sprintf("pre-%d", k))); err != nil {
			t.Fatal(err)
		}
	}

	sctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	switchDone := make(chan error, 1)
	go func() {
		_, err := c.ChangeProtocolAll(sctx, dpu.ProtocolToken)
		switchDone <- err
	}()
	joiner, err := c.AddNode(sctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := <-switchDone; err != nil {
		t.Fatal(err)
	}
	nodes[3] = joiner
	cols[3] = collectOn(t, joiner)

	// The joiner and the founders converge on the same protocol, epoch
	// and view.
	deadline := time.Now().Add(timeout)
	for {
		js, err := joiner.Status(sctx)
		if err != nil {
			t.Fatal(err)
		}
		fs, err := nodes[0].Status(sctx)
		if err != nil {
			t.Fatal(err)
		}
		if js.Protocol == dpu.ProtocolToken && js.Protocol == fs.Protocol &&
			js.Epoch == fs.Epoch && fmt.Sprint(js.Members) == fmt.Sprint(fs.Members) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("joiner never converged: joiner %+v founders %+v", js, fs)
		}
		time.Sleep(2 * time.Millisecond)
	}

	if err := nodes[1].Broadcast(ctx, []byte("anchor")); err != nil {
		t.Fatal(err)
	}
	waitForMarker(t, cols, "1:anchor")
	const post = 24
	for k := 0; k < post; k++ {
		if err := nodes[k%4].Broadcast(ctx, []byte(fmt.Sprintf("post-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		if !t.Failed() {
			return
		}
		for id, nd := range nodes {
			st, err := nd.Status(context.Background())
			t.Logf("stack %d status %+v err %v", id, st, err)
		}
	}()
	waitSuffixAgreement(t, cols, "1:anchor", post+1)
}

// TestSubscribeViewsDuringChurnStorm hammers concurrent Subscribe(Views)
// streams while members join and leave — exercised under -race in CI.
func TestSubscribeViewsDuringChurnStorm(t *testing.T) {
	ctx := context.Background()
	c, err := dpu.New(3, dpu.WithSeed(45), dpu.WithMembership())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n0, err := c.Node(0)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sub, err := n0.Subscribe(dpu.SubscribeOptions{Views: true, Buffer: 8})
				if err != nil {
					return // cluster closing
				}
				for i := 0; i < 3; i++ {
					select {
					case <-sub.Views():
					case <-time.After(time.Millisecond):
					}
				}
				sub.Close()
			}
		}()
	}

	// Churn: admit three nodes and evict each right after, while the
	// subscribe storm runs.
	for round := 0; round < 3; round++ {
		jctx, cancel := context.WithTimeout(ctx, timeout)
		node, err := c.AddNode(jctx, "")
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		if _, err := n0.Evict(jctx, node.Index()); err != nil {
			cancel()
			t.Fatal(err)
		}
		cancel()
	}
	close(stop)
	wg.Wait()

	// The founders still agree after the storm.
	st0, err := n0.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st0.Members) != 3 || st0.ViewID != 6 {
		t.Fatalf("final status %+v, want 3 members after view 6", st0)
	}
}

// TestServeJoinOverRealUDP runs the whole cross-process joiner path in
// one test: a founding cluster over real loopback sockets serves join
// handshakes on TCP, and dpu.Join boots a second, single-stack cluster
// (standing in for a fresh OS process) that lands in the view and
// delivers the same ordered suffix.
func TestServeJoinOverRealUDP(t *testing.T) {
	ctx := context.Background()
	const n = 3
	book := udpBook(t, n)
	endpoints := make(map[int]string, n)
	for a, ep := range book {
		endpoints[int(a)] = ep
	}
	tr, err := transport.NewUDP(transport.UDPConfig{Book: book})
	if err != nil {
		t.Fatal(err)
	}
	c, err := dpu.New(n, dpu.WithTransport(tr), dpu.WithMembership(), dpu.WithEndpoints(endpoints))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ServeJoin(ln); err != nil {
		t.Fatal(err)
	}

	cols := make(map[int]*collector)
	nodes := make(map[int]*dpu.Node)
	for i := 0; i < n; i++ {
		nd, err := c.Node(i)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
		cols[i] = collectOn(t, nd)
	}

	// The "fresh process": its own transport, its own cluster object.
	joinEP := transporttest.ReserveAddrs(t, 1)[0]
	jctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	jc, jn, err := dpu.Join(jctx, ln.Addr().String(), joinEP)
	if err != nil {
		t.Fatal(err)
	}
	defer jc.Close()
	if jn.Index() != n {
		t.Fatalf("joiner id %d, want %d", jn.Index(), n)
	}
	jcol := collectOn(t, jn)

	all := map[int]*collector{0: cols[0], 1: cols[1], 2: cols[2], 3: jcol}
	if err := nodes[0].Broadcast(ctx, []byte("anchor")); err != nil {
		t.Fatal(err)
	}
	waitForMarker(t, all, "0:anchor")
	const post = 20
	for k := 0; k < post; k++ {
		sender := nodes[k%n]
		if k%4 == 3 {
			sender = jn
		}
		if err := sender.Broadcast(ctx, []byte(fmt.Sprintf("post-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	waitSuffixAgreement(t, all, "0:anchor", post+1)

	st, err := jn.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Members) != n+1 {
		t.Fatalf("joiner view %+v, want %d members", st, n+1)
	}

	// Evict a founder over the real transport: the survivors (including
	// the node that joined over the wire) keep agreeing, and the
	// process-level route pruning must not sever anyone still needed.
	ectx, cancel2 := context.WithTimeout(ctx, timeout)
	defer cancel2()
	if _, err := nodes[0].Evict(ectx, 2); err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].Broadcast(ctx, []byte("post-evict")); err != nil {
		t.Fatal(err)
	}
	survivors := map[int]*collector{0: cols[0], 1: cols[1], 3: jcol}
	waitSuffixAgreement(t, survivors, "1:post-evict", 1)
}

// TestRestartRevivesCrashedSlot is the crash–restart acceptance path:
// a member crashes, is evicted, and AddNode brings its process back as
// a fresh member under a new id — never the old one — that delivers the
// same totally-ordered suffix as the survivors.
func TestRestartRevivesCrashedSlot(t *testing.T) {
	ctx := context.Background()
	c, err := dpu.New(3, dpu.WithSeed(17), dpu.WithMembership())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	nodes := make(map[int]*dpu.Node)
	cols := make(map[int]*collector)
	for i := 0; i < 3; i++ {
		n, err := c.Node(i)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		cols[i] = collectOn(t, n)
	}

	crashed := nodes[2]
	if err := crashed.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[0].Evict(ctx, 2); err != nil {
		t.Fatal(err)
	}

	revived, err := c.AddNode(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if revived.Index() == 2 {
		t.Fatal("restarted member reused the crashed id")
	}
	if revived.Index() != 3 {
		t.Fatalf("restarted member id %d, want 3 (next deterministic id)", revived.Index())
	}
	// The revived slot is running again; the old one stays retired.
	if _, err := c.Node(2); !errors.Is(err, dpu.ErrNotRunning) {
		t.Fatalf("old slot: %v, want ErrNotRunning", err)
	}

	rcol := collectOn(t, revived)
	live := map[int]*collector{0: cols[0], 1: cols[1], 3: rcol}
	if err := nodes[0].Broadcast(ctx, []byte("anchor")); err != nil {
		t.Fatal(err)
	}
	waitForMarker(t, live, "0:anchor")
	const post = 12
	for k := 0; k < post; k++ {
		sender := nodes[k%2]
		if k%3 == 2 {
			sender = revived
		}
		if err := sender.Broadcast(ctx, []byte(fmt.Sprintf("post-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	waitSuffixAgreement(t, live, "0:anchor", post+1)

	st, err := revived.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Members) != 3 {
		t.Fatalf("view after restart %v, want 3 members", st.Members)
	}
	for _, m := range st.Members {
		if m == 2 {
			t.Fatalf("view %v still lists the crashed incarnation", st.Members)
		}
	}
}

// TestRestartWithoutEvict brings a crashed member back through AddNode
// while its dead incarnation still sits in the view: the join orders
// through the live majority and the group keeps agreeing.
func TestRestartWithoutEvict(t *testing.T) {
	ctx := context.Background()
	c, err := dpu.New(3, dpu.WithSeed(23), dpu.WithMembership())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	n0, err := c.Node(0)
	if err != nil {
		t.Fatal(err)
	}
	n1, err := c.Node(1)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := c.Node(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := n2.Crash(); err != nil {
		t.Fatal(err)
	}
	revived, err := c.AddNode(ctx, "")
	if err != nil {
		t.Fatal(err)
	}

	cols := map[int]*collector{0: collectOn(t, n0), 1: collectOn(t, n1), 3: collectOn(t, revived)}
	if err := n1.Broadcast(ctx, []byte("alive")); err != nil {
		t.Fatal(err)
	}
	waitSuffixAgreement(t, cols, "1:alive", 1)

	st, err := revived.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Members) != 4 {
		t.Fatalf("view %v, want 4 members (dead id 2 still listed)", st.Members)
	}
}

// TestAddNodeBootFailureEvictsPhantom covers the one compensation path
// of a join: over real sockets, a join whose stack cannot boot (its
// endpoint's port is already bound) commits first, so AddNode evicts
// the phantom member again and reports the boot failure only once that
// eviction has committed. No founder keeps counting the phantom, and
// the next join is assigned the id after it.
func TestAddNodeBootFailureEvictsPhantom(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	const n = 3
	book := udpBook(t, n)
	endpoints := make(map[int]string, n)
	for a, ep := range book {
		endpoints[int(a)] = ep
	}
	tr, err := transport.NewUDP(transport.UDPConfig{Book: book})
	if err != nil {
		t.Fatal(err)
	}
	c, err := dpu.New(n, dpu.WithTransport(tr), dpu.WithMembership(), dpu.WithEndpoints(endpoints))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	squatter, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer squatter.Close()
	if _, err := c.AddNode(ctx, squatter.LocalAddr().String()); !errors.Is(err, syscall.EADDRINUSE) {
		t.Fatalf("AddNode on a bound port = %v, want the bind failure (EADDRINUSE)", err)
	}

	// The sponsor, stack 0, had committed the eviction when AddNode
	// returned; the others install it at the same epoch.
	n0, err := c.Node(0)
	if err != nil {
		t.Fatal(err)
	}
	st0, err := n0.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		nd, err := c.Node(i)
		if err != nil {
			t.Fatal(err)
		}
		st, err := nd.WaitForEpoch(ctx, st0.Epoch)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(st.Members, []int{0, 1, 2}) {
			t.Errorf("stack %d members %v after the failed join, want the phantom 3 evicted", i, st.Members)
		}
	}

	joiner, err := c.AddNode(ctx, transporttest.ReserveAddrs(t, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	if joiner.Index() != 4 {
		t.Fatalf("next joiner id %d, want 4 (ids are never reused)", joiner.Index())
	}
	st, err := joiner.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(st.Members, []int{0, 1, 2, 4}) {
		t.Fatalf("joiner members %v, want [0 1 2 4]", st.Members)
	}
}
