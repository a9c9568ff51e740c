// Package wire moves RingNet protocol messages over real UDP sockets —
// the step from event-driven simulation to real-time execution. The
// pieces compose bottom-up:
//
//   - frame.go:     datagram framing on top of internal/msg's binary codec
//     (group-tagged sections of protocol messages batched per
//     datagram, with per-peer datagram sequencing for
//     loss/reorder stats);
//   - transport.go: the UDP transport — one socket shared by every group a
//     daemon hosts, a group-refcounted peer table, per-peer and
//     per-group counters, group demultiplexing of inbound
//     sections, an optional deterministic loss/jitter injector
//     at the socket layer, clean shutdown;
//   - driver.go:    a real-time executor for the deterministic sim
//     scheduler, so the unmodified protocol core (its RTO
//     timers, τ ticks, ack-delay timers) runs against the
//     wall clock;
//   - outbox.go:    the daemon-wide per-peer batching outbox: outbound
//     traffic from every hosted group coalesces into shared
//     multi-section datagrams, so N groups do not mean N×
//     the datagrams;
//   - link.go:      one group's send path: the internal/core engine's
//     sends to live remote members go straight into the
//     shared outbox, and inbound sections reach the local
//     node on the driver goroutine;
//   - config.go:    the groups-first daemon config (schema v2) and the
//     legacy single-group shim;
//   - report.go:    the per-group + daemon-aggregate status report
//     (schema v2);
//   - group.go:     one hosted ring group: engine, driver, link,
//     membership plane, workload, and convergence barrier;
//   - daemon.go:    the federation orchestrator for cmd/ringnetd and the
//     multi-process harness: one transport + clock-sync per
//     process, N groups demuxed over it.
//
// The paper's local-scope retransmission machinery (transport.Sender,
// couriers, Nack repair, token recovery) is reused as-is, sending through
// the group's Link instead of the simulated network: the real network
// supplies latency, jitter, loss, and reordering.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/msg"
	"repro/internal/seq"
)

// Datagram framing, version 2: a fixed header followed by group-tagged
// sections, each carrying length-prefixed encoded messages. Putting the
// group id in a per-section tag rather than the frame header is what
// lets one datagram carry traffic for many groups at once — the shared
// outbox coalesces every group's backlog for a peer into one socket
// write. Little-endian, like the message codec.
//
//	magic    u16  0x524E ("RN")
//	version  u8   2
//	sections u8   section count (≥ 1)
//	from     u32  sender NodeID
//	seqno    u64  per-(sender→receiver) datagram sequence number
//	sections × {
//	    group  u32  destination group id (0 = transport-internal)
//	    flags  u8   group-level control bits (FlagDone, ...)
//	    count  u8   messages in this section (0 allowed only when flags≠0)
//	    count × { len u32, len bytes of msg.Encode output }
//	}
const (
	frameMagic   = 0x524E
	frameVersion = 2
	headerSize   = 2 + 1 + 1 + 4 + 8

	// sectionOverhead is the per-section tag: group u32, flags u8,
	// count u8.
	sectionOverhead = 4 + 1 + 1

	// MaxDatagram is the default frame-size budget: safely under the
	// 65507-byte UDP payload ceiling, with headroom for the header.
	MaxDatagram = 60000

	// maxFrameMsgs is the per-section message cap imposed by the u8
	// count field; maxFrameSections is the per-datagram section cap
	// imposed by the u8 section count.
	maxFrameMsgs     = 255
	maxFrameSections = 255
)

// GroupControl is the reserved group id 0: sections tagged with it carry
// transport-internal traffic (clock sync) and never reach a protocol
// instance.
const GroupControl uint32 = 0

// Frame-level control flags: daemon-to-daemon signals that ride the
// transport without entering the protocol core. Flags are per-section,
// so they are scoped to one group.
const (
	// FlagDone gossips "this member has delivered everything it
	// expects in this group". Exiting a ring is only safe once every
	// member is done: gap repair (Nack) is pull-based, so a
	// locally-converged member may still be the only reachable holder
	// of a body some straggler is missing. Members repeat the beacon
	// until they exit, so it survives the lossy socket it travels on.
	FlagDone uint8 = 1 << 0
)

// Framing errors.
var (
	ErrBadMagic        = errors.New("wire: bad frame magic")
	ErrBadVersion      = errors.New("wire: unsupported frame version")
	ErrTruncated       = errors.New("wire: truncated frame")
	ErrOversize        = errors.New("wire: message exceeds datagram budget")
	ErrEmptyFrame      = errors.New("wire: empty frame")
	ErrEmptySection    = errors.New("wire: empty section")
	ErrTooManyMsgs     = errors.New("wire: too many messages for one section")
	ErrTooManySections = errors.New("wire: too many sections for one frame")
)

// Section is one group's slice of a datagram: its messages and control
// flags, tagged with the destination group id.
type Section struct {
	Group uint32
	Flags uint8
	Msgs  []msg.Message
}

// Frame is one decoded datagram: the sender, its per-peer sequence
// number, and one section per destination group.
type Frame struct {
	From     seq.NodeID
	Seqno    uint64
	Sections []Section
}

// frameSize returns the encoded size of a frame carrying secs, using the
// messages' WireSize (which the codec tests pin to len(Encode)).
func frameSize(secs []Section) int {
	n := headerSize
	for _, s := range secs {
		n += sectionOverhead
		for _, m := range s.Msgs {
			n += 4 + m.WireSize()
		}
	}
	return n
}

// EncodeFrame serializes one datagram carrying secs from from. A frame
// needs at least one section; a message-less section is valid only when
// it carries flags. The caller is responsible for keeping the result
// under the transport's datagram budget; EncodeFrame only enforces the
// structural count limits.
func EncodeFrame(from seq.NodeID, seqno uint64, secs []Section) ([]byte, error) {
	if len(secs) == 0 {
		return nil, ErrEmptyFrame
	}
	if len(secs) > maxFrameSections {
		return nil, ErrTooManySections
	}
	for _, s := range secs {
		if len(s.Msgs) == 0 && s.Flags == 0 {
			return nil, ErrEmptySection
		}
		if len(s.Msgs) > maxFrameMsgs {
			return nil, ErrTooManyMsgs
		}
	}
	buf := make([]byte, 0, frameSize(secs))
	buf = binary.LittleEndian.AppendUint16(buf, frameMagic)
	buf = append(buf, frameVersion, byte(len(secs)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(from))
	buf = binary.LittleEndian.AppendUint64(buf, seqno)
	for _, s := range secs {
		buf = binary.LittleEndian.AppendUint32(buf, s.Group)
		buf = append(buf, s.Flags, byte(len(s.Msgs)))
		for _, m := range s.Msgs {
			enc := msg.Encode(m)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(enc)))
			buf = append(buf, enc...)
		}
	}
	return buf, nil
}

// DecodeFrame parses one datagram. A version other than 2 is rejected
// with an error naming both versions, so a mixed-version deployment
// fails loudly instead of corrupting state.
func DecodeFrame(buf []byte) (Frame, error) {
	var f Frame
	if len(buf) < headerSize {
		return f, ErrTruncated
	}
	if binary.LittleEndian.Uint16(buf) != frameMagic {
		return f, ErrBadMagic
	}
	if buf[2] != frameVersion {
		return f, fmt.Errorf("%w: got v%d, this node speaks v%d", ErrBadVersion, buf[2], frameVersion)
	}
	sections := int(buf[3])
	if sections == 0 {
		return f, ErrEmptyFrame
	}
	f.From = seq.NodeID(binary.LittleEndian.Uint32(buf[4:]))
	f.Seqno = binary.LittleEndian.Uint64(buf[8:])
	off := headerSize
	f.Sections = make([]Section, 0, sections)
	for si := 0; si < sections; si++ {
		if off+sectionOverhead > len(buf) {
			return f, ErrTruncated
		}
		s := Section{
			Group: binary.LittleEndian.Uint32(buf[off:]),
			Flags: buf[off+4],
		}
		count := int(buf[off+5])
		off += sectionOverhead
		if count == 0 && s.Flags == 0 {
			return f, ErrEmptySection
		}
		if count > 0 {
			s.Msgs = make([]msg.Message, 0, count)
		}
		for i := 0; i < count; i++ {
			if off+4 > len(buf) {
				return f, ErrTruncated
			}
			n := int(binary.LittleEndian.Uint32(buf[off:]))
			off += 4
			if n < 0 || off+n > len(buf) {
				return f, ErrTruncated
			}
			m, err := msg.Decode(buf[off : off+n])
			if err != nil {
				return f, fmt.Errorf("wire: section %d message %d: %w", si, i, err)
			}
			s.Msgs = append(s.Msgs, m)
			off += n
		}
		f.Sections = append(f.Sections, s)
	}
	if off != len(buf) {
		return f, fmt.Errorf("wire: %d trailing bytes after frame", len(buf)-off)
	}
	return f, nil
}
