// Package fd implements the FD module of the paper's stack (Figure 4):
// a heartbeat failure detector providing the properties of the ◇S
// (eventually strong) class assumed by the Chandra–Toueg consensus
// algorithm. Heartbeats travel over raw UDP (losing one is harmless);
// a peer silent for longer than its adaptive timeout is suspected, and
// a heartbeat from a suspected peer both restores it and lengthens its
// timeout — so in a stable run false suspicions eventually cease, the
// ◇S convergence argument.
//
// Heartbeats travel on the shared socket under the udp.ChanFD channel
// tag (see internal/udp's registry), deliberately below RP2P:
// retransmitting a stale heartbeat would defeat the timeout logic.
package fd

import (
	"sort"
	"time"

	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/udp"
)

// suspectCounter counts Suspect indications across all fd modules of
// the process; exported through the metrics registry.
var suspectCounter = metrics.NewCounter("fd.suspect_events")

// Service is the failure-detection service.
const Service kernel.ServiceID = "fd"

// Protocol is the protocol name registered for this module.
const Protocol = "fd"

// Suspect is indicated when a peer becomes suspected.
type Suspect struct {
	P kernel.Addr
}

// Restore is indicated when a suspected peer proves alive again.
type Restore struct {
	P kernel.Addr
}

// SuspectsReq asks for the current suspect list, delivered through
// Reply on the executor.
type SuspectsReq struct {
	Reply func([]kernel.Addr)
}

// Config tunes the detector.
type Config struct {
	// Interval between heartbeats (and suspicion checks).
	Interval time.Duration
	// Timeout is the initial silence threshold before suspicion.
	Timeout time.Duration
	// AdaptStep is added to a peer's timeout after a false suspicion.
	AdaptStep time.Duration
	// MaxTimeout caps adaptation.
	MaxTimeout time.Duration
}

// DefaultConfig returns defaults scaled for the simulated LAN.
func DefaultConfig() Config {
	return Config{
		Interval:   10 * time.Millisecond,
		Timeout:    60 * time.Millisecond,
		AdaptStep:  40 * time.Millisecond,
		MaxTimeout: 2 * time.Second,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Interval <= 0 {
		c.Interval = d.Interval
	}
	if c.Timeout <= 0 {
		c.Timeout = d.Timeout
	}
	if c.AdaptStep <= 0 {
		c.AdaptStep = d.AdaptStep
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = d.MaxTimeout
	}
	return c
}

type monitored struct {
	lastHeard time.Time
	timeout   time.Duration
	suspected bool
}

// Module implements the failure detector.
type Module struct {
	kernel.Base
	cfg   Config
	peers map[kernel.Addr]*monitored
	tick  *kernel.Timer
}

// Factory returns the module factory.
func Factory(cfg Config) kernel.Factory {
	cfg = cfg.withDefaults()
	return kernel.Factory{
		Protocol: Protocol,
		Provides: []kernel.ServiceID{Service},
		Requires: []kernel.ServiceID{udp.Service},
		New: func(st *kernel.Stack) kernel.Module {
			return &Module{
				Base:  kernel.NewBase(st, Protocol),
				cfg:   cfg,
				peers: make(map[kernel.Addr]*monitored),
			}
		},
	}
}

// Start begins monitoring the other members of the current view and
// subscribes to view changes so the monitor set tracks the membership.
func (m *Module) Start() {
	now := m.Stk.Now()
	for _, p := range m.Stk.Others() {
		m.peers[p] = &monitored{lastHeard: now, timeout: m.cfg.Timeout}
	}
	m.Stk.Subscribe(udp.Service, m)
	m.Stk.Subscribe(kernel.PeerService, m)
	m.tick = m.Stk.Every(m.cfg.Interval, m.onTick)
}

// Stop halts heartbeats and monitoring.
func (m *Module) Stop() {
	if m.tick != nil {
		m.tick.Stop()
	}
	m.Stk.Unsubscribe(udp.Service, m)
	m.Stk.Unsubscribe(kernel.PeerService, m)
}

// onPeersChanged reconciles the monitor set with a new membership view:
// added members start monitored (heard "now", base timeout) so a fresh
// joiner gets its startup grace; removed members are forgotten without
// a Suspect, eviction is not a failure.
func (m *Module) onPeersChanged(pc kernel.PeersChanged) {
	now := m.Stk.Now()
	for _, p := range pc.Added {
		if p == m.Stk.Addr() {
			continue
		}
		if _, ok := m.peers[p]; !ok {
			m.peers[p] = &monitored{lastHeard: now, timeout: m.cfg.Timeout}
		}
	}
	for _, p := range pc.Removed {
		delete(m.peers, p)
	}
}

func (m *Module) onTick() {
	// Iterate in sorted order: heartbeat sends consume the shared simnet
	// fault RNG, so map-order iteration would make packet fates differ
	// between runs with the same seed.
	peers := make([]kernel.Addr, 0, len(m.peers))
	for p := range m.peers {
		peers = append(peers, p)
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	for _, p := range peers {
		m.Stk.Call(udp.Service, udp.Send{To: p, Chan: udp.ChanFD})
	}
	now := m.Stk.Now()
	for _, p := range peers {
		st := m.peers[p]
		if !st.suspected && now.Sub(st.lastHeard) > st.timeout {
			st.suspected = true
			suspectCounter.Add(1)
			m.Stk.Indicate(Service, Suspect{P: p})
		}
	}
}

// HandleIndication processes heartbeat receptions and membership views.
func (m *Module) HandleIndication(svc kernel.ServiceID, ind kernel.Indication) {
	if svc == kernel.PeerService {
		if pc, ok := ind.(kernel.PeersChanged); ok {
			m.onPeersChanged(pc)
		}
		return
	}
	rv, ok := ind.(udp.Recv)
	if !ok || rv.Chan != udp.ChanFD {
		return
	}
	st, ok := m.peers[rv.From]
	if !ok {
		return
	}
	st.lastHeard = m.Stk.Now()
	if st.suspected {
		st.suspected = false
		st.timeout = min(st.timeout+m.cfg.AdaptStep, m.cfg.MaxTimeout)
		m.Stk.Indicate(Service, Restore{P: rv.From})
	}
}

// HandleRequest serves SuspectsReq.
func (m *Module) HandleRequest(_ kernel.ServiceID, req kernel.Request) {
	r, ok := req.(SuspectsReq)
	if !ok || r.Reply == nil {
		return
	}
	var out []kernel.Addr
	for p, st := range m.peers {
		if st.suspected {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	r.Reply(out)
}
