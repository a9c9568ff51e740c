package main

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// A stage table as ringnet-trace prints it (-top 0).
const stageReport = `ringnet-trace: 3 members [1 2 3], reference node 1, 4455 stitched paths
clock-sync error bound: ±0.081 ms (worst half-RTT ±0.041 ms)
  node 2 clock shift onto node 1: +0.024 ms

stage                              n    p50 ms    p99 ms   mean ms    max ms
publish→outbox_enqueue          4455     0.004     0.015     0.005     0.550
tx→rx                           2970     0.228     3.652     0.427     7.936
wq_accept→stamp                 2970     0.969     6.813     1.271    23.336
publish→deliver (e2e)           4455     1.493    10.961     2.015    24.849
`

func TestParseStageTable(t *testing.T) {
	rows := parseStageTable(stageReport)
	if len(rows) != 4 {
		t.Fatalf("parsed %d rows, want 4: %v", len(rows), rows)
	}
	want := map[string]stageRow{
		"tx→rx":           {n: 2970, p50: 0.228, p99: 3.652, mean: 0.427, max: 7.936},
		"wq_accept→stamp": {n: 2970, p50: 0.969, p99: 6.813, mean: 1.271, max: 23.336},
		e2eRow:            {n: 4455, p50: 1.493, p99: 10.961, mean: 2.015, max: 24.849},
	}
	for name, w := range want {
		if got, ok := rows[name]; !ok || got != w {
			t.Errorf("row %q = %+v (present %v), want %+v", name, got, ok, w)
		}
	}
	if len(parseStageTable("no complete publish→deliver paths\n")) != 0 {
		t.Error("rows parsed out of a report without a table")
	}
}

const exposition = `# HELP ringnet_outbox_flush_bytes Bytes drained per shared-outbox flush (batch occupancy).
# TYPE ringnet_outbox_flush_bytes histogram
ringnet_outbox_flush_bytes_bucket{le="64"} 3
ringnet_outbox_flush_bytes_bucket{le="+Inf"} 10
ringnet_outbox_flush_bytes_sum 6400
ringnet_outbox_flush_bytes_count 10
# HELP ringnet_store_sync_seconds Durable-log flush+fsync latency.
# TYPE ringnet_store_sync_seconds histogram
ringnet_store_sync_seconds_bucket{group="1",le="+Inf"} 4
ringnet_store_sync_seconds_sum{group="1"} 0.004
ringnet_store_sync_seconds_count{group="1"} 4
ringnet_store_sync_seconds_bucket{group="2",le="+Inf"} 1
ringnet_store_sync_seconds_sum{group="2"} 0.002
ringnet_store_sync_seconds_count{group="2"} 1
# HELP ringnet_nacks_total Repair Nacks by escalation tier.
# TYPE ringnet_nacks_total counter
ringnet_nacks_total{group="1",tier="ranged"} 7
ringnet_nacks_total{group="1",tier="broadcast"} 2
ringnet_nacks_total{group="2",tier="ranged"} 1
# HELP ringnet_nacks_total_extra Not the nacks family.
# TYPE ringnet_nacks_total_extra counter
ringnet_nacks_total_extra 100
`

func TestHistogramSumCount(t *testing.T) {
	m, err := telemetry.ParseExposition(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	if s, c := histSumCount(m, "ringnet_outbox_flush_bytes"); s != 6400 || c != 10 {
		t.Errorf("outbox flush sum/count = %v/%v, want 6400/10", s, c)
	}
	s, c := histSumCount(m, "ringnet_store_sync_seconds")
	if math.Abs(s-0.006) > 1e-12 || c != 5 {
		t.Errorf("store sync sum/count over groups = %v/%v, want 0.006/5", s, c)
	}
	if s, c := histSumCount(m, "ringnet_store_append_seconds"); s != 0 || c != 0 {
		t.Errorf("absent family = %v/%v, want 0/0", s, c)
	}
	if got := sumWhere(m, "ringnet_nacks_total", `tier="ranged"`); got != 8 {
		t.Errorf("ranged nacks = %v, want 8", got)
	}
	if got := sumFamily(m, "ringnet_nacks_total"); got != 10 {
		t.Errorf("all nacks = %v, want 10 (a longer family name must not match)", got)
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		// A socket write: the syscall frame is innermost.
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.sendto", "net.(*netFD).writeTo", "repro/internal/wire.(*Transport).send"}, "syscall"},
		// Allocation inside the codec: runtime frames are skipped until
		// the innermost layer.
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "repro/internal/msg.Decode", "repro/internal/wire.DecodeFrame"}, "msg"},
		// GC assist charged to the allocation is GC, not the caller.
		{[]string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/seq.(*WTSNP).Insert"}, "gc"},
		{[]string{"runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"repro/internal/queue.(*SourceQueue).CumReceived", "repro/internal/core.(*Node).handleData"}, "queue"},
		// Internal packages without a bucket of their own.
		{[]string{"repro/internal/membership.(*Member).tick", "repro/internal/wire.(*ringGroup).start"}, "other"},
		{[]string{"runtime.findRunnable", "runtime.schedule"}, "other"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := bucketOf(c.frames); got != c.want {
			t.Errorf("bucketOf(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

// protobuf encoding helpers for a synthetic profile.proto.
func pbVarint(b []byte, num int, v uint64) []byte {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func pbBytes(b []byte, num int, data []byte) []byte {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(data)))
	return append(b, data...)
}

func pbPacked(b []byte, num int, vs ...uint64) []byte {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	return pbBytes(b, num, p)
}

func TestSyntheticProfileShares(t *testing.T) {
	strs := []string{"", "syscall.sendto", "repro/internal/wire.(*Transport).send", "repro/internal/seq.(*WTSNP).Insert", "runtime.mallocgc"}
	var prof []byte
	for _, s := range strs {
		prof = pbBytes(prof, 6, []byte(s))
	}
	for id := uint64(1); id < uint64(len(strs)); id++ {
		var fn []byte
		fn = pbVarint(fn, 1, id)
		fn = pbVarint(fn, 2, id) // name: string index id
		prof = pbBytes(prof, 5, fn)
	}
	// Location 1 is sendto inlined into Transport.send (innermost line
	// first); locations 2 and 3 hold one function each.
	loc := func(id uint64, fns ...uint64) []byte {
		var l []byte
		l = pbVarint(l, 1, id)
		for _, f := range fns {
			l = pbBytes(l, 4, pbVarint(nil, 1, f))
		}
		return l
	}
	prof = pbBytes(prof, 4, loc(1, 1, 2))
	prof = pbBytes(prof, 4, loc(2, 4))
	prof = pbBytes(prof, 4, loc(3, 3))
	sample := func(ns uint64, locs ...uint64) []byte {
		s := pbPacked(nil, 1, locs...)
		return pbPacked(s, 2, 1, ns) // values: samples, cpu ns
	}
	prof = pbBytes(prof, 2, sample(30, 1))    // syscall
	prof = pbBytes(prof, 2, sample(50, 2, 3)) // mallocgc under WTSNP.Insert: seq
	prof = pbBytes(prof, 2, sample(20, 3))    // seq

	samples, err := decodeProfile(prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 || len(samples[0].frames) != 2 || samples[0].frames[0] != "syscall.sendto" {
		t.Fatalf("decoded %+v", samples)
	}
	shares := cpuShares(samples)
	if len(shares) != len(cpuBuckets) {
		t.Errorf("%d buckets reported, want %d", len(shares), len(cpuBuckets))
	}
	if math.Abs(shares["syscall"]-0.3) > 1e-9 || math.Abs(shares["seq"]-0.7) > 1e-9 || shares["wire"] != 0 {
		t.Errorf("shares = %v, want syscall 0.3, seq 0.7", shares)
	}
	if _, err := decodeProfile([]byte{0x0a, 0x05, 0x01}); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

func member(node uint32, hash string) wire.Report {
	return wire.Report{
		Node:      node,
		Converged: true,
		Delivered: 30,
		Groups: []wire.GroupReport{{
			Group: 1, Converged: true, Delivered: 30, Expected: 30,
			OrderHash: hash, FirstGlobal: 1, LastGlobal: 30,
		}},
	}
}

func TestGate(t *testing.T) {
	good := []wire.Report{member(1, "abc"), member(2, "abc"), member(3, "abc")}
	if bad := gate(good, nil, true, nil); len(bad) != 0 {
		t.Fatalf("agreeing members failed the gate: %v", bad)
	}

	diverged := []wire.Report{member(1, "abc"), member(2, "abd"), member(3, "abc")}
	bad := gate(diverged, nil, true, nil)
	if len(bad) != 1 || !strings.Contains(bad[0], "member 2: order_hash abd differs") {
		t.Fatalf("mismatched hash: gate reported %v", bad)
	}

	short := []wire.Report{member(1, "abc"), member(2, "abc"), member(3, "abc")}
	short[2].Groups[0].Delivered = 29
	short[2].Groups[0].LastGlobal = 30
	short[0].SendErrs = 1
	short[1].Groups[0].DLQEntries = 2
	if bad := gate(short, nil, true, nil); len(bad) != 4 {
		t.Fatalf("want send-error, DLQ, shortfall and really-lost failures, got %v", bad)
	}
	// The global range check is only for loss-free workloads.
	if bad := gate(short, nil, false, nil); len(bad) != 3 {
		t.Fatalf("lossy workload: got %v", bad)
	}

	// Instrumented: a member without a final scrape fails, and a
	// really-lost counter fails on a loss-free workload.
	final := []map[string]float64{
		{`ringnet_really_lost_total{group="1"}`: 0},
		nil,
		{`ringnet_really_lost_total{group="1"}`: 3},
	}
	bad = gate(good, nil, true, final)
	if len(bad) != 2 || !strings.Contains(bad[0], "member 2: no /metrics scrape") || !strings.Contains(bad[1], "member 3: ringnet_really_lost_total 3") {
		t.Fatalf("instrumented gate: %v", bad)
	}
}

func TestStitchPaths(t *testing.T) {
	const g, src, local = 1, 1, 7
	at := func(node uint32, s telemetry.Stage) slot { return slot{g, src, local, node, s} }
	first := map[slot]int64{
		at(1, telemetry.StagePublish):  0,
		at(1, telemetry.StageEnqueue):  1e3,
		at(1, telemetry.StageFlush):    5e4,
		at(1, telemetry.StageTX):       6e4,
		at(1, telemetry.StageStamp):    1e6,
		at(1, telemetry.StageMQReady):  1.1e6,
		at(1, telemetry.StageDeliver):  1.2e6,
		at(2, telemetry.StageRX):       3e5,
		at(2, telemetry.StageWQAccept): 4e5,
		at(2, telemetry.StageStamp):    1.5e6,
		at(2, telemetry.StageMQReady):  1.6e6,
		at(2, telemetry.StageDeliver):  2e6,
		// Member 3 received it but never delivered: no path.
		at(3, telemetry.StageRX): 3e5,
	}
	stages := map[string][]float64{}
	stitchPaths(first, stages)
	want := map[string][]float64{
		"publish→outbox_enqueue":      {0.001, 0.001},
		"outbox_enqueue→outbox_flush": {0.049, 0.049},
		"outbox_flush→tx":             {0.01, 0.01},
		"tx→stamp":                    {0.94},
		"tx→rx":                       {0.24},
		"rx→wq_accept":                {0.1},
		"wq_accept→stamp":             {1.1},
		"stamp→mq_ready":              {0.1, 0.1},
		"mq_ready→deliver":            {0.1, 0.4},
		e2eRow:                        {1.2, 2.0},
	}
	if len(stages) != len(want) {
		t.Fatalf("rows %v, want %v", stages, want)
	}
	for row, w := range want {
		got := append([]float64(nil), stages[row]...)
		if len(got) != len(w) {
			t.Errorf("%s: %v, want %v", row, got, w)
			continue
		}
		if len(got) == 2 && got[0] > got[1] {
			got[0], got[1] = got[1], got[0]
		}
		for i := range w {
			if math.Abs(got[i]-w[i]) > 1e-9 {
				t.Errorf("%s: %v, want %v", row, got, w)
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	vs := []float64{4, 1, 3, 2}
	if q := quantile(vs, 0.5); q != 2.5 {
		t.Errorf("median = %v, want 2.5", q)
	}
	if q := quantile(vs, 1); q != 4 {
		t.Errorf("max = %v, want 4", q)
	}
	if vs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}
