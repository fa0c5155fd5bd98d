package dpu

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"time"

	"repro/internal/gm"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// joinSyncsCounter counts joiner sync cuts served by this process
// (AddNode commits and ServeJoin handshakes).
var joinSyncsCounter = metrics.NewCounter("membership.join_syncs_served")

// joinRetriesCounter counts join handshake attempts that failed at the
// transport level and were retried under WithJoinRetry.
var joinRetriesCounter = metrics.NewCounter("membership.join_retries")

// AddNode admits a brand-new member to a running cluster and hosts its
// stack in this process: a fresh id is assigned at the commit point of
// the ordered join, every member installs the view admitting it, and
// the new stack boots on the coherent cut the join created — the epoch
// boundary where every layer (rbcast destinations, rp2p peers, fd
// monitors, consensus quorums, transport routes) already includes it.
// From that epoch on the newcomer delivers the exact totally-ordered
// suffix the founders deliver.
//
// endpoint is the new node's transport endpoint ("host:port" over a
// real-socket transport; "" over the built-in simulated LAN). Requires
// WithMembership (ErrNoMembership otherwise). AddNode is AddNodeAsync
// plus a wait for its outcome, for ctx, for the sponsoring stack to
// stop or for the cluster to close.
//
// AddNode is also how a crashed or evicted member comes back: ids are
// never reused, so the revived process joins under a fresh id, with a
// fresh endpoint over a real-socket transport (the dead incarnation's
// socket may still hold the old one).
func (c *Cluster) AddNode(ctx context.Context, endpoint string) (*Node, error) {
	type added struct {
		n   *Node
		err error
	}
	reply := make(chan added, 1)
	sponsor, err := c.addNode(endpoint, func(n *Node, err error) { reply <- added{n, err} })
	if err != nil {
		return nil, err
	}
	r, err := await(ctx, c, sponsor, reply)
	if err != nil {
		return nil, err
	}
	return r.n, r.err
}

// AddNodeAsync is the non-blocking form of AddNode for callers that
// must not wait on cluster progress — the virtual-time scenario driver,
// whose clock goroutine IS what makes the commit happen. The join is
// ordered through a sponsor; when it commits, the joiner's stack is
// booted inline on the sponsor's executor and done is invoked there
// with the new node. If the boot fails, the phantom
// member is evicted again and done receives the boot error once that
// eviction has committed. done must not block. The error returned by
// AddNodeAsync itself only covers submission (no membership, no
// running sponsor).
func (c *Cluster) AddNodeAsync(endpoint string, done func(*Node, error)) error {
	_, err := c.addNode(endpoint, done)
	return err
}

// addNode is AddNodeAsync, returning the sponsor AddNode waits on.
func (c *Cluster) addNode(endpoint string, done func(*Node, error)) (*stackSlot, error) {
	return c.orderJoin(endpoint, func(sponsor *stackSlot, r gm.Result) {
		if r.Err != nil {
			done(nil, r.Err)
			return
		}
		id := int(r.Member)
		bootErr := c.bootJoiner(r)
		if bootErr == nil {
			done(&Node{c: c, id: id}, nil)
			return
		}
		// The join already committed: every member's view, quorum and
		// monitor set now count a stack that never started. Evict the
		// phantom so the group's fault tolerance is not silently reduced,
		// and report the failure once the eviction has committed.
		sponsor.st.Call(gm.Service, gm.Leave{P: r.Member, Reply: func(l gm.Result) {
			if l.Err != nil {
				done(nil, fmt.Errorf("dpu: joiner stack %d failed (%w); compensating eviction also failed: %v", id, bootErr, l.Err))
				return
			}
			done(nil, fmt.Errorf("dpu: joiner stack %d failed and was evicted again: %w", id, bootErr))
		}})
	})
}

// orderJoin orders a join for endpoint through the sponsor, which
// assigns the fresh id at the commit; reply runs on the sponsor's
// executor once the join commits there.
func (c *Cluster) orderJoin(endpoint string, reply func(*stackSlot, gm.Result)) (*stackSlot, error) {
	if !c.membership {
		return nil, fmt.Errorf("%w: enable it with WithMembership", ErrNoMembership)
	}
	sponsor, err := c.sponsor()
	if err != nil {
		return nil, err
	}
	sponsor.st.Call(gm.Service, gm.Join{Endpoint: endpoint, Reply: func(r gm.Result) {
		if r.Err == nil {
			joinSyncsCounter.Add(1)
		}
		reply(sponsor, r)
	}})
	return sponsor, nil
}

// bootJoiner starts, in this process, the stack of the member whose
// join committed with res, on the cut that join created. It is the one
// boot of a joiner hosted by an existing cluster.
func (c *Cluster) bootJoiner(res gm.Result) error {
	id := res.Member
	// Every member admits the route when it installs the view, each on
	// its own executor; admit it here too so the joiner's socket can
	// open before this process's stacks have.
	if ep := res.Endpoints[id]; ep != "" {
		if r, ok := c.tr.(transport.Router); ok {
			if err := r.AddRoute(transport.Addr(id), ep); err != nil {
				return err
			}
		}
	}
	reg := c.newRegistry(bootCut{
		protocol:  res.Protocol,
		epoch:     res.Epoch,
		viewID:    res.View.ID,
		nextID:    res.NextID,
		endpoints: res.Endpoints,
	})
	_, err := c.buildStack(int(id), res.View.Members, reg)
	return err
}

// sponsorJoin orders a join through the sponsor and waits for its
// commit, returning the sync cut a joiner in another process boots
// from; nothing boots here.
func (c *Cluster) sponsorJoin(ctx context.Context, endpoint string) (gm.Result, error) {
	reply := make(chan gm.Result, 1)
	sponsor, err := c.orderJoin(endpoint, func(_ *stackSlot, r gm.Result) { reply <- r })
	if err != nil {
		return gm.Result{}, err
	}
	r, err := await(ctx, c, sponsor, reply)
	if err == nil {
		err = r.Err
	}
	return r, err
}

// joinRequest and joinResponse are the JSON handshake between a joining
// process (Join) and a member process (ServeJoin): one request line,
// one response line, over TCP.
type joinRequest struct {
	Endpoint string `json:"endpoint"`
}

type joinResponse struct {
	Error     string         `json:"error,omitempty"`
	Member    int            `json:"member"`
	Epoch     uint64         `json:"epoch"`
	ViewID    uint64         `json:"view_id"`
	NextID    int            `json:"next_id"`
	Protocol  string         `json:"protocol"`
	Members   []int          `json:"members"`
	Endpoints map[int]string `json:"endpoints"`
}

// ServeJoin accepts join handshakes on the listener: each connection
// carries one joinRequest, is ordered through this cluster as a join,
// and is answered with the committed sync cut. The listener is closed
// when the cluster closes. Requires WithMembership
// and, for the joiner to be reachable, a real-socket transport with
// endpoints configured (WithEndpoints).
func (c *Cluster) ServeJoin(l net.Listener) error {
	if !c.membership {
		return fmt.Errorf("%w: enable it with WithMembership", ErrNoMembership)
	}
	go func() {
		<-c.closed
		l.Close()
	}()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go c.serveJoinConn(conn)
		}
	}()
	return nil
}

func (c *Cluster) serveJoinConn(conn net.Conn) {
	defer conn.Close()
	timeout := c.opts.joinTimeout
	//dpulint:ignore clocktime TCP I/O deadline on a real socket; kernel OS timers are wall-clock by definition
	conn.SetDeadline(time.Now().Add(timeout))
	var req joinRequest
	if err := json.NewDecoder(bufio.NewReader(conn)).Decode(&req); err != nil {
		return
	}
	enc := json.NewEncoder(conn)
	// The ordered join gets 3/4 of the connection budget, leaving room
	// to write the response (or the error) before the deadline hits.
	ctx, cancel := context.WithTimeout(context.Background(), timeout*3/4)
	defer cancel()
	res, err := c.sponsorJoin(ctx, req.Endpoint)
	if err != nil {
		enc.Encode(joinResponse{Error: err.Error()})
		return
	}
	resp := joinResponse{
		Member:    int(res.Member),
		Epoch:     res.Epoch,
		ViewID:    res.View.ID,
		NextID:    int(res.NextID),
		Protocol:  res.Protocol,
		Members:   make([]int, len(res.View.Members)),
		Endpoints: make(map[int]string, len(res.Endpoints)),
	}
	for i, m := range res.View.Members {
		resp.Members[i] = int(m)
	}
	for p, ep := range res.Endpoints {
		resp.Endpoints[int(p)] = ep
	}
	enc.Encode(resp)
}

// Join connects a fresh OS process to a running multi-process cluster:
// it performs the ServeJoin handshake against a member at sponsorAddr
// (TCP), then boots a single-stack cluster over real UDP sockets on the
// committed cut — this process's stack is the newly admitted member,
// listening on selfEndpoint. The returned Node delivers the same
// totally-ordered suffix as every founding member, from its join epoch
// on.
//
// Functional options are honored where they make sense for a joiner
// (WithGrace, WithBatching, WithMaxOutstanding, WithSeed,
// WithJoinTimeout, WithJoinRetry and consensus variants — which must
// match the founders' registries); the
// initial protocol, epoch and membership come from the handshake.
//
// Each handshake attempt is bounded by WithJoinTimeout (default 60s) or
// a shorter ctx deadline; with WithJoinRetry, transport-level failures
// (sponsor not listening yet, sponsor dying mid-handshake) are retried
// with capped exponential backoff, so a restarting process rides out a
// briefly-dead sponsor.
func Join(ctx context.Context, sponsorAddr, selfEndpoint string, opts ...Option) (*Cluster, *Node, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(o)
	}
	impls, err := buildImpls(o)
	if err != nil {
		return nil, nil, err
	}
	backoffClock := o.clock
	if backoffClock == nil {
		backoffClock = vclock.Wall
	}
	// The retry schedule is the stream backend's: the same Backoff type
	// and WaitBackoff clock discipline that drive TCP reconnects drive
	// the join handshake, so their semantics are tested in one place.
	backoff := transport.NewBackoff(o.joinRetry.base, o.joinRetry.max, o.net.Seed^0x6a014e5e)
	var resp joinResponse
	for attempt := 1; ; attempt++ {
		var retryable bool
		var err error
		resp, retryable, err = joinHandshake(ctx, sponsorAddr, selfEndpoint, o.joinTimeout)
		if err == nil {
			break
		}
		if !retryable || attempt >= o.joinRetry.attempts {
			return nil, nil, err
		}
		joinRetriesCounter.Add(1)
		if werr := transport.WaitBackoff(ctx, backoffClock, backoff.Delay(attempt)); werr != nil {
			return nil, nil, fmt.Errorf("dpu: join aborted during backoff: %w", werr)
		}
	}

	book := make(map[transport.Addr]string, len(resp.Endpoints)+1)
	endpoints := make(map[kernel.Addr]string, len(resp.Endpoints)+1)
	for id, ep := range resp.Endpoints {
		book[transport.Addr(id)] = ep
		endpoints[kernel.Addr(id)] = ep
	}
	book[transport.Addr(resp.Member)] = selfEndpoint
	endpoints[kernel.Addr(resp.Member)] = selfEndpoint
	tr, err := transport.NewUDP(transport.UDPConfig{Book: book})
	if err != nil {
		return nil, nil, err
	}
	o.membership = true
	o.transport = tr
	o.clock = vclock.Wall // joiners run over real sockets: wall time only
	size := max(resp.NextID, resp.Member+1)
	peers := make([]kernel.Addr, len(resp.Members))
	for i, m := range resp.Members {
		peers[i] = kernel.Addr(m)
	}
	c, err := start(o, nil, tr, impls, size, []int{resp.Member}, peers, bootCut{
		protocol:  resp.Protocol,
		epoch:     resp.Epoch,
		viewID:    resp.ViewID,
		nextID:    kernel.Addr(resp.NextID),
		endpoints: endpoints,
	})
	if err != nil {
		return nil, nil, err
	}
	node, err := c.Node(resp.Member)
	if err != nil {
		c.Close()
		return nil, nil, err
	}
	return c, node, nil
}

// joinHandshake performs one dial+exchange against a ServeJoin
// listener, bounded by timeout (or a shorter ctx deadline). The second
// return reports whether the failure is transport-level and worth
// retrying; a sponsor that answered with a refusal is final.
func joinHandshake(ctx context.Context, sponsorAddr, selfEndpoint string, timeout time.Duration) (joinResponse, bool, error) {
	conn, err := transport.DialStream(ctx, sponsorAddr, timeout)
	if err != nil {
		return joinResponse{}, true, fmt.Errorf("dpu: join handshake: %w", err)
	}
	defer conn.Close()
	//dpulint:ignore clocktime TCP I/O deadline on a real socket; kernel OS timers are wall-clock by definition
	dl := time.Now().Add(timeout)
	if cdl, ok := ctx.Deadline(); ok && cdl.Before(dl) {
		dl = cdl
	}
	conn.SetDeadline(dl)
	if err := json.NewEncoder(conn).Encode(joinRequest{Endpoint: selfEndpoint}); err != nil {
		return joinResponse{}, true, fmt.Errorf("dpu: join handshake: %w", err)
	}
	var resp joinResponse
	if err := json.NewDecoder(bufio.NewReader(conn)).Decode(&resp); err != nil {
		return joinResponse{}, true, fmt.Errorf("dpu: join handshake: %w", err)
	}
	if resp.Error != "" {
		return joinResponse{}, false, fmt.Errorf("dpu: join refused: %s", resp.Error)
	}
	return resp, false, nil
}
