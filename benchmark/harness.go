package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync/atomic"
	"time"
)

// The harness is one generator goroutine and one collector goroutine
// around dense message ids. The generator stamps slot.t0 before it hands
// a message to the program; the collector alone touches the rest of the
// slot, so no delivery takes a lock or a map lookup. The enqueue into
// the stack and the subscription channel order the two goroutines'
// accesses to a slot.

const (
	payloadMagic  = 0xD9B3C4A1
	payloadHeader = 16 // magic, CRC-32C of everything after it, id
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// mix folds v into the rolling hash h, one FNV-1a step over a whole word.
func mix(h, v uint64) uint64 { return (h ^ v) * 1099511628211 }

// stampPayload writes the header for id into buf, whose body (the
// bytes after the header) the caller filled from the seed.
func stampPayload(buf []byte, id uint64) {
	binary.LittleEndian.PutUint32(buf[0:], payloadMagic)
	binary.LittleEndian.PutUint64(buf[8:], id)
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(buf[8:], castagnoli))
}

// peekID reads the id out of a payload without verifying the body; ok
// is false when b does not start with the magic.
func peekID(b []byte) (id uint64, ok bool) {
	if len(b) < payloadHeader || binary.LittleEndian.Uint32(b) != payloadMagic {
		return 0, false
	}
	return binary.LittleEndian.Uint64(b[8:]), true
}

// openPayload verifies a delivered payload and returns its id.
func openPayload(b []byte, size int) (uint64, error) {
	id, ok := peekID(b)
	switch {
	case !ok:
		return 0, fmt.Errorf("payload of %d bytes without the magic", len(b))
	case len(b) != size:
		return id, fmt.Errorf("message %d has %d bytes, sent %d", id, len(b), size)
	case binary.LittleEndian.Uint32(b[4:]) != crc32.Checksum(b[8:], castagnoli):
		return id, fmt.Errorf("message %d failed its checksum", id)
	}
	return id, nil
}

// newPayloadBuffers returns one reusable payload buffer per sender with
// a seeded random body. Node.Broadcast copies before it returns, so a
// sender's buffer is restamped for its next message.
func newPayloadBuffers(seed int64, senders, size int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	bufs := make([][]byte, senders)
	for i := range bufs {
		bufs[i] = make([]byte, size)
		rng.Read(bufs[i][payloadHeader:])
	}
	return bufs
}

// slot is the per-message record. Times are nanoseconds since the run's
// epoch.
type slot struct {
	t0   int64 // due instant (open loop) or send instant (closed loop)
	done int64 // instant the last stack delivered it; 0 until then
	seen uint8 // bit s is set once stack s delivered it
}

const (
	chunkBits = 16
	chunkSize = 1 << chunkBits
	maxChunks = 1 << 12
)

// slotTable is a dense id → slot table that grows a chunk at a time, so
// a timed run need not know its message count in advance.
type slotTable struct {
	chunks [maxChunks]atomic.Pointer[[chunkSize]slot]
}

// claim returns the slot for a new id, allocating its chunk on first
// use. Generator only.
func (t *slotTable) claim(id uint64) *slot {
	c := &t.chunks[id>>chunkBits]
	p := c.Load()
	if p == nil {
		p = new([chunkSize]slot)
		c.Store(p)
	}
	return &p[id&(chunkSize-1)]
}

// at returns the slot of an id the generator has claimed, or nil.
func (t *slotTable) at(id uint64) *slot {
	if id>>chunkBits >= maxChunks {
		return nil
	}
	p := t.chunks[id>>chunkBits].Load()
	if p == nil {
		return nil
	}
	return &p[id&(chunkSize-1)]
}

// auditor checks, delivery by delivery, what the README calls the
// correctness audit: every stack delivers the same sequence (rolling
// hash and count), every id exactly once per stack, payloads intact.
// It belongs to the collector goroutine until the run ends.
type auditor struct {
	n         int
	size      int
	slots     *slotTable
	issued    *atomic.Uint64 // ids the generator has handed to the program
	hash      []uint64       // per stack, over the ids in delivery order
	count     []uint64       // per stack
	completed atomic.Uint64  // messages every stack has delivered
	failures  int
	firstErr  error
}

func newAuditor(n, size int, slots *slotTable, issued *atomic.Uint64) *auditor {
	return &auditor{n: n, size: size, slots: slots, issued: issued,
		hash: make([]uint64, n), count: make([]uint64, n)}
}

func (a *auditor) fail(err error) {
	a.failures++
	if a.firstErr == nil {
		a.firstErr = err
	}
}

// deliver records that stack delivered payload at instant now and
// returns the message's id; ok is false when the delivery failed the
// audit.
func (a *auditor) deliver(stack int, payload []byte, now int64) (id uint64, ok bool) {
	id, err := openPayload(payload, a.size)
	if err != nil {
		a.fail(fmt.Errorf("stack %d: %w", stack, err))
		return id, false
	}
	if id >= a.issued.Load() {
		a.fail(fmt.Errorf("stack %d delivered message %d, which was never sent", stack, id))
		return id, false
	}
	s := a.slots.at(id)
	bit := uint8(1) << stack
	if s.seen&bit != 0 {
		a.fail(fmt.Errorf("stack %d delivered message %d twice", stack, id))
		return id, false
	}
	s.seen |= bit
	a.hash[stack] = mix(a.hash[stack], id)
	a.count[stack]++
	if s.seen == uint8(1)<<a.n-1 {
		s.done = now
		a.completed.Add(1)
	}
	return id, true
}

// finish runs the end-of-run checks over the first total ids and
// returns how many messages were not delivered everywhere.
func (a *auditor) finish(total uint64) (undelivered int) {
	full := uint8(1)<<a.n - 1
	for id := uint64(0); id < total; id++ {
		if a.slots.at(id).seen != full {
			undelivered++
		}
	}
	if undelivered > 0 {
		a.fail(fmt.Errorf("%d of %d messages were not delivered on every stack within %s", undelivered, total, drainDeadline))
	}
	for s := 1; s < a.n; s++ {
		if a.count[s] != a.count[0] || a.hash[s] != a.hash[0] {
			a.fail(fmt.Errorf("stack %d delivered %d messages with sequence hash %016x, stack 0 delivered %d with %016x",
				s, a.count[s], a.hash[s], a.count[0], a.hash[0]))
		}
	}
	return undelivered
}

// schedule is the open-loop generator's absolute timetable: message k
// of the steady stream is due at k/rate, and every burstEvery a burst of
// burstLen messages is due at once. It never skips: a generator that
// falls behind sends everything that has come due, each message still
// timed from its own due instant, which is what charges a stall to the
// messages that were waiting (no coordinated omission).
type schedule struct {
	rate       float64
	burstEvery time.Duration
	burstLen   int

	nextSteady int64 // index of the next steady message
	nextBurst  int64 // index of the next burst
	inBurst    int   // messages of the current burst still to emit
}

// due is one message the schedule wants sent.
type due struct {
	at       int64 // ns since the run's epoch
	burst    bool  // part of a burst
	lastOf   bool  // the last message of its burst: switch now
	burstIdx int64
}

func (s *schedule) steadyAt(k int64) int64 { return int64(float64(k) / s.rate * 1e9) }
func (s *schedule) burstAt(k int64) int64  { return (k + 1) * int64(s.burstEvery) }

// next returns the earliest message due at or before now, or ok false
// with the instant of the next one.
func (s *schedule) next(now int64) (d due, wait int64, ok bool) {
	if s.inBurst > 0 {
		s.inBurst--
		return due{at: s.burstAt(s.nextBurst - 1), burst: true, lastOf: s.inBurst == 0, burstIdx: s.nextBurst - 1}, 0, true
	}
	st := s.steadyAt(s.nextSteady)
	if s.burstLen > 0 {
		if bt := s.burstAt(s.nextBurst); bt <= st {
			if bt > now {
				return due{}, bt, false
			}
			s.nextBurst++
			s.inBurst = s.burstLen
			return s.next(now)
		}
	}
	if st > now {
		return due{}, st, false
	}
	s.nextSteady++
	return due{at: st}, 0, true
}

// lateness is the generator's account of how far behind its schedule
// it sent.
type lateness struct {
	sends int
	late  int   // sends more than lateThreshold behind
	maxNS int64 // the worst one
}

func (l *lateness) add(behind int64) {
	l.sends++
	if behind > int64(lateThreshold) {
		l.late++
	}
	if behind > l.maxNS {
		l.maxNS = behind
	}
}

func (l *lateness) invalid() bool {
	return l.sends > 0 && float64(l.late) > lateShareInvalid*float64(l.sends)
}

// windowsOf buckets the messages that completed in [from, to) into
// windows of length step by completion instant, leaving out a trailing
// partial window. A message that never completed counts in the window it
// was due in, at the drain deadline.
func windowsOf(slots *slotTable, total uint64, from, to, step int64) []window {
	n := int((to - from) / step)
	if n <= 0 {
		return nil
	}
	ws := make([]window, n)
	for id := uint64(0); id < total; id++ {
		s := slots.at(id)
		at, lat := s.done, s.done-s.t0
		if s.done == 0 {
			at, lat = s.t0, int64(drainDeadline)
		}
		if at < from || at >= from+int64(n)*step {
			continue
		}
		w := &ws[(at-from)/step]
		if s.done != 0 {
			w.count++
		}
		w.latMS = append(w.latMS, float64(lat)/1e6)
	}
	return ws
}
