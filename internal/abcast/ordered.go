package abcast

import (
	"repro/internal/kernel"
	"repro/internal/rp2p"
	"repro/internal/wire"
)

// ordFrame is the kind of the ordered frames abcast/seq's sequencer and
// abcast/token's holder send, one per member per executor pass: (ordFrame,
// first global number), then (origin, len, payload) per message numbered
// consecutively. Like ct's payload frames they are capped at
// maxFrameBytes; a payload larger than the cap travels alone.
const ordFrame byte = 0

// frameFull reports whether the frame under construction w has no room
// left for a record of n payload bytes and its header.
func frameFull(w *wire.Writer, n int) bool {
	return w != nil && w.Len()+n+24 > maxFrameBytes
}

// appendOrdered appends message g to the ordered frame w, opening one if
// w is nil. Frames are fresh, never pooled: deliveries alias them.
func appendOrdered(w *wire.Writer, g uint64, origin kernel.Addr, data []byte) *wire.Writer {
	if w == nil {
		w = wire.NewWriter(len(data) + 64)
		w.Byte(ordFrame).Uvarint(g)
	}
	w.Uvarint(uint64(origin)).BytesField(data)
	return w
}

// sendFrame sends the finished frame w, if any, to each of to over rp2p:
// a self-addressed copy is handed to the channel's handler at once.
func sendFrame(st *kernel.Stack, channel string, w *wire.Writer, to ...kernel.Addr) {
	if w == nil {
		return
	}
	for _, p := range to {
		st.CallSync(rp2p.Service, rp2p.Send{To: p, Channel: channel, Data: w.Bytes()})
	}
}

// inOrder delivers the messages of ordered frames in global-number
// order, whatever order the frames arrive in: successive token holders
// send theirs over different links.
type inOrder struct {
	next uint64            // global number of the next message to deliver
	hold map[uint64][]byte // records of the frames not delivered yet, by first number
}

// take takes in one ordered frame, r positioned after its kind byte.
func (o *inOrder) take(st *kernel.Stack, r *wire.Reader) {
	g, recs := r.Uvarint(), r.Rest()
	if r.Err() != nil || g < o.next {
		return // malformed, or a duplicate
	}
	if o.hold == nil {
		o.hold = make(map[uint64][]byte)
	}
	o.hold[g] = recs
	for recs, ok := o.hold[o.next]; ok; recs, ok = o.hold[o.next] {
		delete(o.hold, o.next)
		for r := wire.NewReader(recs); r.Remaining() > 0; {
			origin, data := kernel.Addr(r.Uvarint()), r.BytesField()
			if r.Err() != nil {
				return
			}
			o.next++
			st.Indicate(ServiceImpl, Deliver{Origin: origin, Data: data})
		}
	}
}
