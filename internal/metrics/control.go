package metrics

import (
	"fmt"

	"repro/internal/msg"
)

// ControlReport summarizes control-plane versus data-plane message
// volume for one run — the quantity the ack-coalescing and piggybacking
// work optimizes. Data and SourceData frames (payload carriers,
// including any piggybacked acknowledgements) are the data plane;
// everything else is control. Acks, Progress, and Nacks are the
// "ack plane": the standalone per-hop reliability traffic that delayed
// cumulative acknowledgements batch away.
type ControlReport struct {
	Acks     uint64 // standalone Ack messages sent
	Progress uint64 // standalone Progress reports sent
	Nacks    uint64 // Nack repair requests sent

	// Heartbeats counts membership-plane beacons (zero outside live
	// deployments) — the failure detector's share of the control plane.
	Heartbeats uint64 `json:",omitempty"`

	ControlMsgs  uint64 // all non-payload messages sent
	ControlBytes uint64
	DataMsgs     uint64 // payload-carrying messages sent
	DataBytes    uint64

	Delivered uint64 // application-level payload deliveries
}

// AckPlane returns the standalone reliability-control message count.
func (r ControlReport) AckPlane() uint64 { return r.Acks + r.Progress + r.Nacks }

// AckPerDelivered returns standalone ack-plane messages per delivered
// payload (0 when nothing was delivered) — the gated regression metric.
func (r ControlReport) AckPerDelivered() float64 {
	if r.Delivered == 0 {
		return 0
	}
	return float64(r.AckPlane()) / float64(r.Delivered)
}

// ControlPerDelivered returns all control messages per delivered payload.
func (r ControlReport) ControlPerDelivered() float64 {
	if r.Delivered == 0 {
		return 0
	}
	return float64(r.ControlMsgs) / float64(r.Delivered)
}

// ControlByteShare returns the control-plane fraction of all bytes sent.
func (r ControlReport) ControlByteShare() float64 {
	total := r.ControlBytes + r.DataBytes
	if total == 0 {
		return 0
	}
	return float64(r.ControlBytes) / float64(total)
}

func (r ControlReport) String() string {
	return fmt.Sprintf(
		"control: %d msgs / %d B (%.1f%% of bytes); data: %d msgs / %d B; ack-plane %d (ack %d, progress %d, nack %d) = %.3f/delivered over %d deliveries",
		r.ControlMsgs, r.ControlBytes, 100*r.ControlByteShare(),
		r.DataMsgs, r.DataBytes,
		r.AckPlane(), r.Acks, r.Progress, r.Nacks,
		r.AckPerDelivered(), r.Delivered)
}

// Traffic is a link's send-side accounting: per-kind message counts and
// the data/control split of the bytes that entered the link. Both send
// substrates — the simulated network and the wire's outbox link — feed
// one, and Engine.ControlReport reads it.
type Traffic struct {
	byKind    [256]uint64
	dataMsgs  uint64
	dataBytes uint64
	ctrlMsgs  uint64
	ctrlBytes uint64
}

// Kind counts one send attempt of kind k.
func (t *Traffic) Kind(k msg.Kind) { t.byKind[k]++ }

// Plane attributes one message of the given wire size that entered the
// link to the data plane (Data and SourceData, payload carriers) or the
// control plane (everything else).
func (t *Traffic) Plane(k msg.Kind, size int) {
	switch k {
	case msg.KindData, msg.KindSourceData:
		t.dataMsgs++
		t.dataBytes += uint64(size)
	default:
		t.ctrlMsgs++
		t.ctrlBytes += uint64(size)
	}
}

// Report renders the counts as a ControlReport; Delivered is the
// caller's to fill.
func (t *Traffic) Report() ControlReport {
	return ControlReport{
		Acks:         t.byKind[msg.KindAck],
		Progress:     t.byKind[msg.KindProgress],
		Nacks:        t.byKind[msg.KindNack],
		Heartbeats:   t.byKind[msg.KindHeartbeat],
		ControlMsgs:  t.ctrlMsgs,
		ControlBytes: t.ctrlBytes,
		DataMsgs:     t.dataMsgs,
		DataBytes:    t.dataBytes,
	}
}
