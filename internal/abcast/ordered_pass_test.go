package abcast_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/abcast"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/rp2p"
	"repro/internal/simnet"
	"repro/internal/stacktest"
	"repro/internal/vclock"
)

// These tests pin what abcast/seq and abcast/token put on the wire: one
// ordered frame per member per executor pass — and one data frame to the
// sequencer per pass of a seq origin — capped at 16 KiB (abcast's
// maxFrameBytes), a payload over the cap in a frame of its own. They run
// in virtual time and count rp2p transmissions through counters, so no
// budget depends on the host.

const frameCap = 16 << 10

// burst hands the payloads to stack i's module within one executor event,
// hence one executor pass.
func burst(c *stacktest.Cluster, i int, payloads [][]byte) {
	st := c.Stacks[i]
	c.OnSync(i, func() {
		for _, p := range payloads {
			st.CallSync(abcast.ServiceImpl, abcast.Broadcast{Data: p})
		}
	})
}

// sized returns n distinct payloads of size ≥ 8 bytes from stack i.
func sized(i, n, size int) [][]byte {
	out := make([][]byte, n)
	for k := range out {
		out[k] = make([]byte, size)
		copy(out[k], fmt.Sprintf("%d/%05d", i, k))
	}
	return out
}

// withBig replaces payload k by one 4 KiB over the cap.
func withBig(payloads [][]byte, k int) [][]byte {
	payloads[k] = make([]byte, frameCap+4096)
	copy(payloads[k], "big")
	return payloads
}

// idleToken is abcast/token whose holder keeps an idle token for an
// hour: the token moves only when a burst passes it on.
var idleToken = abcast.TokenImpl(abcast.TokenConfig{HoldIdle: time.Hour})

// TestOrderedFramesPerPass: a burst issued in one executor pass costs a
// fixed number of rp2p packets, whatever its length up to the cap, and
// is delivered exactly once, in one order, everywhere.
func TestOrderedFramesPerPass(t *testing.T) {
	const n, msgs = 3, 300
	for _, tc := range []struct {
		name    string
		im      abcast.Impl
		origin  int
		payload [][]byte
		packets uint64
	}{
		// 1 data frame to the sequencer, then its ordered frame to the
		// n−1 others (a packet per message per link would be 900).
		{"seq/origin", abcast.SequencerImpl(), 1, sized(1, msgs, 8), 1 + (n - 1)},
		// The sequencer stamps its own broadcasts without a round trip.
		{"seq/sequencer", abcast.SequencerImpl(), 0, sized(0, msgs, 8), n - 1},
		// The holder (stack 0 mints the token): one frame per other
		// member, then the token.
		{"token/holder", idleToken, 0, sized(0, msgs, 8), (n - 1) + 1},
		// 20 × 4000 B = 80000 B: ⌈80000 / 16384⌉ = 5 frames per member.
		{"seq/over-cap", abcast.SequencerImpl(), 0, sized(0, 20, 4000), 5 * (n - 1)},
		{"token/over-cap", idleToken, 0, sized(0, 20, 4000), 5*(n-1) + 1},
		// A payload over the cap goes alone, between the frames of the
		// small payloads before and after it.
		{"seq/alone", abcast.SequencerImpl(), 0, withBig(sized(0, 11, 8), 5), 3 * (n - 1)},
		{"token/alone", idleToken, 0, withBig(sized(0, 11, 8), 5), 3*(n-1) + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, vc, sinks := implGroup(t, n, tc.im, rp2p.Config{RTO: 5 * time.Millisecond})
			delta := stacktest.CounterDelta()
			burst(c, tc.origin, tc.payload)
			vc.RunFor(100 * time.Millisecond)
			for i, s := range sinks {
				got := s.snapshot()
				if len(got) != len(tc.payload) {
					t.Fatalf("stack %d delivered %d messages, want %d", i, len(got), len(tc.payload))
				}
				for k, d := range got {
					if d.origin != kernel.Addr(tc.origin) || d.data != string(tc.payload[k]) {
						t.Fatalf("stack %d: delivery %d is not broadcast %d of stack %d", i, k, k, tc.origin)
					}
				}
			}
			checkTotalOrder(t, sinks, nil)
			checkNoDuplicates(t, sinks, nil)
			if got := delta("rp2p.packets_sent"); got != tc.packets {
				t.Errorf("rp2p.packets_sent moved by %d, want %d", got, tc.packets)
			}
		})
	}
}

// TestOrderedStopSendsTheOpenFrame: a module removed in the executor
// pass that framed a burst sends the frame from Stop — a seq origin's
// data frame, a token holder's stamped queue — so the other stacks
// deliver the whole burst.
func TestOrderedStopSendsTheOpenFrame(t *testing.T) {
	const n, msgs = 3, 50
	for _, tc := range []struct {
		name   string
		im     abcast.Impl
		origin int
	}{
		{"seq/origin", abcast.SequencerImpl(), 1},
		{"token/holder", idleToken, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, vc, sinks := implGroup(t, n, tc.im, rp2p.Config{RTO: 5 * time.Millisecond})
			st := c.Stacks[tc.origin]
			payloads := sized(tc.origin, msgs, 8)
			c.OnSync(tc.origin, func() {
				for _, p := range payloads {
					st.CallSync(abcast.ServiceImpl, abcast.Broadcast{Data: p})
				}
				st.RemoveModule(st.Provider(abcast.ServiceImpl).ID())
			})
			vc.RunFor(100 * time.Millisecond)
			for i, s := range sinks {
				if i == tc.origin {
					continue
				}
				if got := s.count(); got != msgs {
					t.Fatalf("stack %d delivered %d messages, want %d", i, got, msgs)
				}
			}
			checkTotalOrder(t, sinks, nil)
		})
	}
}

// rp2pSpy stands in for rp2p on a lone stack: it records every Send and
// hands a self-addressed one straight to the channel's handler, as
// rp2p's local shortcut does.
type rp2pSpy struct {
	kernel.Base
	handler func(rp2p.Recv)
	sent    []rp2p.Send
}

func (s *rp2pSpy) HandleRequest(_ kernel.ServiceID, req kernel.Request) {
	switch r := req.(type) {
	case rp2p.Listen:
		s.handler = r.Handler
	case rp2p.Send:
		s.sent = append(s.sent, r)
		if r.To == s.Stk.Addr() && s.handler != nil {
			s.handler(rp2p.Recv{From: r.To, Channel: r.Channel, Data: r.Data})
		}
	}
}

// TestOrderedFramesStayUnderTheCap: on the sequencer and on the token
// holder, what one pass stamps leaves in frames of at most 16 KiB, except
// for a payload over the cap, which has a frame of its own.
func TestOrderedFramesStayUnderTheCap(t *testing.T) {
	payloads := withBig(sized(0, 19, 4000), 9)
	for _, im := range []abcast.Impl{abcast.SequencerImpl(), idleToken} {
		t.Run(im.Name, func(t *testing.T) {
			st := kernel.NewStack(kernel.Config{Addr: 0, Peers: []kernel.Addr{0, 1, 2}})
			defer st.Close()
			spy := &rp2pSpy{Base: kernel.NewBase(st, "spy")}
			var log *sink
			run := func(fn func()) {
				t.Helper()
				if err := st.DoSync(fn); err != nil {
					t.Fatal(err)
				}
			}
			run(func() {
				st.AddModule(spy)
				st.Bind(rp2p.Service, spy)
				m := im.New(st, 0)
				st.AddModule(m)
				st.Bind(abcast.ServiceImpl, m)
				log = newSink(st)
				st.AddModule(log)
				st.Subscribe(abcast.ServiceImpl, log)
				m.Start()
			})
			run(func() {
				for _, p := range payloads {
					st.CallSync(abcast.ServiceImpl, abcast.Broadcast{Data: p})
				}
			})
			var frames []int
			run(func() { // the flusher has run: the previous pass is over
				for _, s := range spy.sent {
					if s.To == 1 && s.Data[0] == 0 { // ordered frames to one peer
						frames = append(frames, len(s.Data))
					}
				}
			})
			// 9 × 4000 B, the big one, 9 × 4000 B: 4 payloads a frame.
			if len(frames) != 3+1+3 {
				t.Fatalf("frames to one peer: %v bytes, want 7 frames", frames)
			}
			for k, size := range frames {
				if k == 3 {
					if big := len(payloads[9]); size < big || size > big+16 {
						t.Errorf("frame %d is %d bytes: the %d-byte payload does not travel alone", k, size, big)
					}
				} else if size > frameCap {
					t.Errorf("frame %d is %d bytes, over the %d-byte cap", k, size, frameCap)
				}
			}
			var got []delivery
			run(func() { got = log.snapshot() })
			if len(got) != len(payloads) {
				t.Fatalf("delivered %d messages to self, want %d", len(got), len(payloads))
			}
			for k, d := range got {
				if d.data != string(payloads[k]) {
					t.Fatalf("self-delivery %d is not broadcast %d", k, k)
				}
			}
		})
	}
}

// appSink logs what the replacement layer delivers, keeping each
// payload both as delivered — aliasing the frame it came in — and as a
// copy taken at delivery.
type appSink struct {
	kernel.Base
	got      [][]byte
	copies   []string
	switches int
}

func (s *appSink) HandleIndication(_ kernel.ServiceID, ind kernel.Indication) {
	switch ev := ind.(type) {
	case core.Deliver:
		s.got = append(s.got, ev.Data)
		s.copies = append(s.copies, string(ev.Data))
	case core.Switched:
		s.switches++
	}
}

// TestOrderedSwitchWithFrameOpen: every stack issues broadcasts in one
// executor pass, and one of them a protocol change in the middle of its
// pass, so the change marker shares the old module's frame with
// messages before and after it. Every message is delivered once, in one
// order, on every stack — those the old protocol ordered after the
// marker through core's reissue — and the payloads delivered out of one
// frame still hold their bytes after later passes: frames are never
// pooled.
func TestOrderedSwitchWithFrameOpen(t *testing.T) {
	const n, per = 3, 20
	for _, pair := range [][2]string{
		{abcast.ProtocolSeq, abcast.ProtocolToken},
		{abcast.ProtocolToken, abcast.ProtocolSeq},
		{abcast.ProtocolSeq, abcast.ProtocolSeq},
	} {
		t.Run(pair[0]+"_to_"+pair[1], func(t *testing.T) {
			vc := vclock.NewVirtual()
			c := substrate(t, n, simnet.Config{Clock: vc, BaseLatency: time.Millisecond}, rp2p.Config{RTO: 5 * time.Millisecond})
			c.Reg.MustRegister(core.Factory(core.Config{InitialProtocol: pair[0], Grace: 20 * time.Millisecond}))
			c.CreateAll(core.Protocol)
			sinks := make([]*appSink, n)
			for i, st := range c.Stacks {
				c.OnSync(i, func() {
					sinks[i] = &appSink{Base: kernel.NewBase(st, "app")}
					st.AddModule(sinks[i])
					st.Subscribe(core.Service, sinks[i])
				})
			}
			vc.RunFor(10 * time.Millisecond)
			round := func(r int) {
				for i, st := range c.Stacks {
					c.OnSync(i, func() {
						for k := 0; k < per; k++ {
							if r == 0 && i == 1 && k == per/2 {
								st.CallSync(core.Service, core.ChangeProtocol{Protocol: pair[1]})
							}
							st.CallSync(core.Service, core.Broadcast{Data: []byte(fmt.Sprintf("%d/%d/%02d", r, i, k))})
						}
					})
				}
				vc.RunFor(time.Second)
			}
			round(0)
			round(1)
			var ref []string
			for i, s := range sinks {
				var got []string
				c.OnSync(i, func() {
					got = append(got, s.copies...)
					for k, d := range s.got {
						if !bytes.Equal(d, []byte(s.copies[k])) {
							t.Errorf("stack %d: delivery %d changed from %q to %q after later passes", i, k, s.copies[k], d)
						}
					}
					if s.switches != 1 {
						t.Errorf("stack %d switched %d times, want 1", i, s.switches)
					}
				})
				seen := make(map[string]bool)
				for _, d := range got {
					if seen[d] {
						t.Fatalf("stack %d delivered %q twice", i, d)
					}
					seen[d] = true
				}
				if len(got) != 2*n*per {
					t.Fatalf("stack %d delivered %d messages, want %d", i, len(got), 2*n*per)
				}
				if ref == nil {
					ref = got
				} else if fmt.Sprint(got) != fmt.Sprint(ref) {
					t.Fatalf("stacks 0 and %d delivered in different orders:\n%v\n%v", i, ref, got)
				}
			}
		})
	}
}
