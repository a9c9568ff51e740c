package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/queue"
	"repro/internal/seq"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wire"
)

// layerCall is one timed call into a layer's public functions, shaped
// like the workload's messages.
type layerCall struct {
	name string
	// benchtime is passed to -test.benchtime: a duration, or a fixed
	// count ("2000x") where every iteration writes to disk.
	benchtime string
	fn        func(b *testing.B)
}

// callShape is what a workload's clean run says its calls look like.
type callShape struct {
	payload       int // bytes per message body
	msgsPerFrame  int // mean messages per datagram
	appendsPerSyn int // deliveries per member per 25 ms flush window
	dir           string
}

var sink any // keeps timed results alive

func dataMsg(payload int, i int) *msg.Data {
	return &msg.Data{
		Group:        1,
		SourceNode:   2,
		LocalSeq:     seq.LocalSeq(i + 1),
		OrderingNode: 1,
		GlobalSeq:    seq.GlobalSeq(i + 1),
		AckCum:       seq.GlobalSeq(i),
		Payload:      make([]byte, payload),
	}
}

func layerCalls(sh callShape) []layerCall {
	codec := func(size int, decode bool) func(b *testing.B) {
		return func(b *testing.B) {
			d := dataMsg(size, 41)
			buf := msg.Encode(d)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if decode {
					m, err := msg.Decode(buf)
					if err != nil {
						b.Fatal(err)
					}
					sink = m
				} else {
					sink = msg.Encode(d)
				}
			}
		}
	}
	frame := func(decode bool) func(b *testing.B) {
		return func(b *testing.B) {
			msgs := make([]msg.Message, sh.msgsPerFrame)
			for i := range msgs {
				msgs[i] = dataMsg(sh.payload, i)
			}
			secs := []wire.Section{{Group: 1, Msgs: msgs}}
			buf, err := wire.EncodeFrame(1, 1, secs)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if decode {
					f, err := wire.DecodeFrame(buf)
					if err != nil {
						b.Fatal(err)
					}
					sink = f
				} else {
					out, err := wire.EncodeFrame(1, uint64(i), secs)
					if err != nil {
						b.Fatal(err)
					}
					sink = out
				}
			}
		}
	}
	// wq holds a standing backlog of n contiguous unordered messages:
	// each iteration inserts the next one, asks for the cumulative ack
	// and the ready run (both walk the backlog), and orders the oldest.
	wq := func(n int) func(b *testing.B) {
		return func(b *testing.B) {
			sq := queue.NewWQ().ForSource(2)
			next := 0
			for ; next < n; next++ {
				sq.Insert(dataMsg(sh.payload, next))
			}
			// Insert keys the body by the LocalSeq it carries at the
			// call, so one body serves every iteration.
			d := dataMsg(sh.payload, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.LocalSeq = seq.LocalSeq(next + 1)
				next++
				sq.Insert(d)
				sink = sq.CumReceived()
				lo, _ := sq.ReadyRange()
				sq.Drop(lo, lo)
			}
		}
	}
	// A token hop clones the circulating table (O(1)) and inserts the
	// hop's fresh assignment, which forks the touched chunks.
	wtsnp := func(b *testing.B) {
		size := core.DefaultConfig().CompactAbove
		base := seq.NewWTSNP()
		for i := 0; i < size; i++ {
			p := seq.Pair{
				SourceNode:   seq.NodeID(i%members + 1),
				OrderingNode: 1,
				Local:        seq.Range{Min: uint64(i/members*4 + 1), Max: uint64(i/members*4 + 4)},
				Global:       seq.Range{Min: uint64(i*4 + 1), Max: uint64(i*4 + 4)},
			}
			if err := base.Insert(p); err != nil {
				b.Fatal(err)
			}
		}
		next := seq.Pair{
			SourceNode:   1,
			OrderingNode: 1,
			Local:        seq.Range{Min: uint64(size/members*4 + 100), Max: uint64(size/members*4 + 103)},
			Global:       seq.Range{Min: uint64(size*4 + 1), Max: uint64(size*4 + 4)},
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w := base.Clone()
			if err := w.Insert(next); err != nil {
				b.Fatal(err)
			}
			sink = w
		}
	}
	// The per-message RTO pattern: arm a retransmission timer among 10k
	// pending ones, cancel it on the ack, and let the clock move on.
	timer := func(b *testing.B) {
		s := sim.NewScheduler()
		nop := func(any) {}
		for i := 0; i < 10000; i++ {
			s.AfterCall(sim.Time(3600+i)*sim.Second, nop, nil)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t := s.AfterCall(200*sim.Millisecond, nop, nil)
			t.Stop()
			if _, err := s.Run(s.Now() + sim.Microsecond); err != nil {
				b.Fatal(err)
			}
		}
	}
	var logs int
	openLog := func(b *testing.B) *store.FileLog {
		logs++
		l, err := store.OpenFileLog(filepath.Join(sh.dir, fmt.Sprintf("log-%d", logs)), store.FileLogOptions{})
		if err != nil {
			b.Fatal(err)
		}
		return l
	}
	appendLog := func(b *testing.B) {
		l := openLog(b)
		defer l.Close()
		payload := make([]byte, 1024)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := l.Append(store.Record{Global: seq.GlobalSeq(i + 1), Source: 2, Local: seq.LocalSeq(i + 1), Payload: payload}); err != nil {
				b.Fatal(err)
			}
		}
	}
	// One flush window: the appends a member makes in 25 ms at this
	// workload's rate and payload, then the fsync that makes them durable.
	syncLog := func(b *testing.B) {
		l := openLog(b)
		defer l.Close()
		payload := make([]byte, sh.payload)
		g := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < sh.appendsPerSyn; j++ {
				g++
				if err := l.Append(store.Record{Global: seq.GlobalSeq(g), Source: 2, Local: seq.LocalSeq(g), Payload: payload}); err != nil {
					b.Fatal(err)
				}
			}
			if err := l.Sync(); err != nil {
				b.Fatal(err)
			}
		}
	}
	const quick = "100ms"
	return []layerCall{
		{"msg.codec.enc.64B", quick, codec(64, false)},
		{"msg.codec.dec.64B", quick, codec(64, true)},
		{"msg.codec.enc.1KB", quick, codec(1024, false)},
		{"msg.codec.dec.1KB", quick, codec(1024, true)},
		{"frame.enc", quick, frame(false)},
		{"frame.dec", quick, frame(true)},
		{"queue.wq.64", quick, wq(64)},
		{"queue.wq.4096", quick, wq(4096)},
		{"seq.wtsnp_insert", quick, wtsnp},
		{"sim.timer", quick, timer},
		{"store.append.1KB", "4000x", appendLog},
		{"store.sync", "40x", syncLog},
	}
}

// timedCall is one layer call's result.
type timedCall struct {
	name        string
	nsPerOp     float64
	allocsPerOp float64
	bytesPerOp  float64
	iterations  int
}

// timeLayers runs every layer call through testing.Benchmark.
func timeLayers(sh callShape) ([]timedCall, error) {
	if err := os.MkdirAll(sh.dir, 0o755); err != nil {
		return nil, err
	}
	var out []timedCall
	for _, c := range layerCalls(sh) {
		if err := flag.Set("test.benchtime", c.benchtime); err != nil {
			return nil, err
		}
		r := testing.Benchmark(c.fn)
		if r.N == 0 {
			return nil, fmt.Errorf("layer call %s failed", c.name)
		}
		out = append(out, timedCall{
			name:        c.name,
			nsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			allocsPerOp: float64(r.MemAllocs) / float64(r.N),
			bytesPerOp:  float64(r.MemBytes) / float64(r.N),
			iterations:  r.N,
		})
	}
	return out, nil
}
