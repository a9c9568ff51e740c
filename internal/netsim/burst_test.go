package netsim

import (
	"testing"

	"repro/internal/msg"
	"repro/internal/seq"
	"repro/internal/sim"
)

func burstMsgs(n int) []msg.Message {
	out := make([]msg.Message, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, &msg.Data{SourceNode: 1, LocalSeq: seq.LocalSeq(i + 1), OrderingNode: 1, GlobalSeq: seq.GlobalSeq(i + 1)})
	}
	return out
}

type burstRecorder struct {
	at   []sim.Time
	msgs []msg.Message
	s    *sim.Scheduler
}

func (r *burstRecorder) Recv(from seq.NodeID, m msg.Message) {
	r.at = append(r.at, r.s.Now())
	r.msgs = append(r.msgs, m)
}

// TestSendBurstSingleEvent: on a jitter-free link a burst arrives as one
// scheduler event, in send order, at the same time individual sends
// would have arrived.
func TestSendBurstSingleEvent(t *testing.T) {
	sched := sim.NewScheduler()
	net := New(sched, sim.NewRNG(1))
	rec := &burstRecorder{s: sched}
	net.Register(1, HandlerFunc(func(seq.NodeID, msg.Message) {}))
	net.Register(2, rec)
	net.Connect(1, 2, LinkParams{Latency: 2 * sim.Millisecond})

	msgs := burstMsgs(5)
	net.SendBurst(1, 2, msgs)
	if got := sched.Len(); got != 1 {
		t.Fatalf("burst scheduled %d events, want 1", got)
	}
	sched.Run(sim.Second)
	if len(rec.msgs) != 5 {
		t.Fatalf("delivered %d, want 5", len(rec.msgs))
	}
	for i, m := range rec.msgs {
		if m != msgs[i] {
			t.Fatalf("delivery %d out of order", i)
		}
		if rec.at[i] != 2*sim.Millisecond {
			t.Fatalf("delivery %d at %v, want 2ms", i, rec.at[i])
		}
	}
	st, tr := net.Stats(), net.Traffic().Report()
	if st.Sent != 5 || st.Delivered != 5 || tr.DataMsgs != 5 || tr.ControlMsgs != 0 {
		t.Fatalf("stats = %+v, traffic = %+v", st, tr)
	}
}

// TestSendBurstJitterFallback: links with jitter cannot share an arrival
// and fall back to one event per frame, drawing per-message jitter
// exactly like Send.
func TestSendBurstJitterFallback(t *testing.T) {
	sched := sim.NewScheduler()
	net := New(sched, sim.NewRNG(7))
	rec := &burstRecorder{s: sched}
	net.Register(1, HandlerFunc(func(seq.NodeID, msg.Message) {}))
	net.Register(2, rec)
	net.Connect(1, 2, LinkParams{Latency: 2 * sim.Millisecond, Jitter: sim.Millisecond})

	net.SendBurst(1, 2, burstMsgs(4))
	if got := sched.Len(); got != 4 {
		t.Fatalf("jittered burst scheduled %d events, want 4 (per-frame fallback)", got)
	}
	sched.Run(sim.Second)
	if len(rec.msgs) != 4 {
		t.Fatalf("delivered %d, want 4", len(rec.msgs))
	}
	for i := 1; i < len(rec.at); i++ {
		if rec.at[i] < rec.at[i-1] {
			t.Fatal("FIFO violated")
		}
	}
}

// TestSendBurstLossPerMessage: loss draws happen per message inside a
// burst — identical RNG consumption to individual sends — and survivors
// still share one delivery event.
func TestSendBurstLossPerMessage(t *testing.T) {
	run := func(burst bool) (delivered uint64, state uint64) {
		sched := sim.NewScheduler()
		rng := sim.NewRNG(42)
		net := New(sched, rng)
		net.Register(1, HandlerFunc(func(seq.NodeID, msg.Message) {}))
		net.Register(2, HandlerFunc(func(seq.NodeID, msg.Message) {}))
		net.Connect(1, 2, LinkParams{Latency: sim.Millisecond, Loss: 0.5})
		msgs := burstMsgs(64)
		if burst {
			net.SendBurst(1, 2, msgs)
		} else {
			for _, m := range msgs {
				net.Send(1, 2, m)
			}
		}
		sched.Run(sim.Second)
		return net.Stats().Delivered, rng.Uint64()
	}
	bd, bs := run(true)
	sd, ss := run(false)
	if bd != sd || bs != ss {
		t.Fatalf("burst (delivered=%d, rng=%d) diverges from per-message sends (delivered=%d, rng=%d)", bd, bs, sd, ss)
	}
	if bd == 0 || bd == 64 {
		t.Fatalf("loss pattern degenerate: %d/64", bd)
	}
}

// TestControlDataAccounting: Data/SourceData land in the data-plane
// counters, everything else in control, and bytes follow WireSize.
func TestControlDataAccounting(t *testing.T) {
	sched := sim.NewScheduler()
	net := New(sched, sim.NewRNG(1))
	net.Register(1, HandlerFunc(func(seq.NodeID, msg.Message) {}))
	net.Register(2, HandlerFunc(func(seq.NodeID, msg.Message) {}))
	net.Connect(1, 2, LinkParams{Latency: sim.Millisecond})

	d := &msg.Data{SourceNode: 1, LocalSeq: 1, OrderingNode: 1, GlobalSeq: 1, Payload: []byte("abc")}
	a := &msg.Ack{From: 1, CumGlobal: 1}
	net.Send(1, 2, d)
	net.Send(1, 2, a)
	st, tr := net.Stats(), net.Traffic().Report()
	if tr.DataMsgs != 1 || tr.ControlMsgs != 1 {
		t.Fatalf("plane counts = data %d, ctrl %d", tr.DataMsgs, tr.ControlMsgs)
	}
	if tr.DataBytes != uint64(d.WireSize()) || tr.ControlBytes != uint64(a.WireSize()) {
		t.Fatalf("plane bytes = data %d (want %d), ctrl %d (want %d)",
			tr.DataBytes, d.WireSize(), tr.ControlBytes, a.WireSize())
	}
	if st.Bytes != tr.DataBytes+tr.ControlBytes {
		t.Fatalf("byte split %d+%d does not sum to total %d", tr.DataBytes, tr.ControlBytes, st.Bytes)
	}
}
