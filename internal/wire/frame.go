package wire

import (
	"encoding/binary"
	"hash/crc32"

	"repro/internal/metrics"
)

// Every datagram that crosses a transport fabric is framed as
//
//	[1-byte tag][4-byte CRC32-C][payload...]
//
// by the udp module (see internal/udp). The checksum covers the tag,
// the payload, and a caller-supplied salt — the sender's stack address
// — so a frame whose source attribution was corrupted in flight fails
// verification just like a flipped payload byte. Frames that fail to
// open are counted in wire.frames_rejected and dropped before they can
// be misparsed into the kernel.

// FrameOverhead is the number of leading bytes a framed datagram
// reserves ahead of the payload: one tag byte plus the 4-byte checksum.
// Senders that use the zero-copy headroom path (udp.Send.Headroom) must
// reserve exactly this many bytes; Writer.Pad(FrameOverhead) does.
const FrameOverhead = 5

// castagnoli is the CRC32-C table; Castagnoli has hardware support on
// amd64/arm64, so sealing costs a few ns even for large frames.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// framesRejected counts datagrams dropped by OpenFrame: truncated
// frames, checksum mismatches, corrupted tags or mis-attributed
// sources. Exposed process-wide as wire.frames_rejected.
var framesRejected = metrics.NewCounter("wire.frames_rejected")

// RejectFrame counts a frame dropped by an outer framing layer (e.g.
// the real-socket transport's frame decoder) into wire.frames_rejected,
// so every layer that refuses a corrupt or truncated frame feeds the
// same process-wide counter.
func RejectFrame() { framesRejected.Add(1) }

// frameSum computes the integrity checksum of a sealed or to-be-sealed
// frame whose payload is frame[FrameOverhead:] followed by body:
// CRC32-C over the salt, the tag byte, and the payload (the 4-byte
// checksum slot itself is excluded). A CRC is a running sum, so the
// split is invisible in the result.
func frameSum(frame, body []byte, salt uint64) uint32 {
	var hdr [9]byte
	binary.BigEndian.PutUint64(hdr[:8], salt)
	hdr[8] = frame[0]
	sum := crc32.Update(0, castagnoli, hdr[:])
	sum = crc32.Update(sum, castagnoli, frame[FrameOverhead:])
	if len(body) > 0 { // almost every frame has none; spare them the call
		sum = crc32.Update(sum, castagnoli, body)
	}
	return sum
}

// SealFrame stamps the checksum into frame[1:5]. The caller has already
// written the tag into frame[0] and the payload from frame[FrameOverhead:];
// the frame must be at least FrameOverhead bytes. Sealing is idempotent,
// so retransmitting a parked buffer through the framing layer again is
// harmless.
func SealFrame(frame []byte, salt uint64) { SealSplitFrame(frame, nil, salt) }

// SealSplitFrame seals a frame that travels as two slices: head carries
// the tag, the checksum slot and the first payload bytes, body the rest
// of the payload. The checksum stamped into head[1:5] is the one
// SealFrame would stamp into the concatenation, so the receiver opens
// head‖body with OpenFrame and cannot tell the difference. body is only
// read.
func SealSplitFrame(head, body []byte, salt uint64) {
	binary.BigEndian.PutUint32(head[1:FrameOverhead], frameSum(head, body, salt))
}

// OpenFrame validates a received frame against salt and splits it into
// tag and payload. The payload aliases data. On any failure — frame too
// short to carry the header, or checksum mismatch — it counts the frame
// into wire.frames_rejected and reports ok=false; the caller must drop
// the datagram.
func OpenFrame(data []byte, salt uint64) (tag byte, payload []byte, ok bool) {
	if len(data) < FrameOverhead {
		framesRejected.Add(1)
		return 0, nil, false
	}
	if binary.BigEndian.Uint32(data[1:FrameOverhead]) != frameSum(data, nil, salt) {
		framesRejected.Add(1)
		return 0, nil, false
	}
	return data[0], data[FrameOverhead:], true
}
