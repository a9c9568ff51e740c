package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// stageMetrics names the rows of the ringnet-trace stage table the
// benchmark reports: each is one hop of a sampled message's critical
// path, telescoping to publish→deliver.
var stageMetrics = []struct{ name, row string }{
	{"trace.outbox_wait", "outbox_enqueue→outbox_flush"},
	{"trace.flush_tx", "outbox_flush→tx"},
	{"trace.net", "tx→rx"},
	{"trace.rx_wq", "rx→wq_accept"},
	{"trace.token_wait", "wq_accept→stamp"},
	{"trace.mq_wait", "stamp→mq_ready"},
	{"trace.deliver", "mq_ready→deliver"},
	{"trace.e2e", e2eRow},
}

// e2eRow is the stage table's publish→deliver summary row.
const e2eRow = "publish→deliver (e2e)"

// stageRow is one row of the stage table, latencies in milliseconds.
type stageRow struct {
	n                   int
	p50, p99, mean, max float64
}

// stitch runs the ringnet-trace stitcher over the members' span dumps
// and returns its report text.
func stitch(bin string, dumps []string) (string, error) {
	args := append([]string{"-top", "0"}, dumps...)
	out, err := exec.Command(bin, args...).Output()
	if err != nil {
		return "", fmt.Errorf("ringnet-trace: %w", err)
	}
	return string(out), nil
}

// parseStageTable reads the stage rows out of ringnet-trace's report:
// every line whose last five fields are n, p50, p99, mean and max, the
// rest of the line being the stage name.
func parseStageTable(report string) map[string]stageRow {
	rows := map[string]stageRow{}
	sc := bufio.NewScanner(strings.NewReader(report))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 {
			continue
		}
		k := len(f) - 5
		n, err := strconv.Atoi(f[k])
		if err != nil {
			continue
		}
		var v [4]float64
		ok := true
		for i := range v {
			if v[i], err = strconv.ParseFloat(f[k+1+i], 64); err != nil {
				ok = false
			}
		}
		if ok {
			rows[strings.Join(f[:k], " ")] = stageRow{n: n, p50: v[0], p99: v[1], mean: v[2], max: v[3]}
		}
	}
	return rows
}

// spanStats is what the benchmark reads directly off the span dumps.
type spanStats struct {
	// stages holds, per stage-table row name, the latency of that hop
	// along every stitched path, in ms.
	stages map[string][]float64
	// genLate holds, per sampled publish, how far the source's publish
	// ran behind its CBR schedule, in ms. The schedule's phase is not
	// exported, so each source's most punctual sampled message is taken
	// as on time.
	genLate     []float64
	published   int // sampled keys published
	retransmits int // retransmit spans of sampled keys
	nackTX      int // repair Nacks sent (annotations, never sampled out)
	fsyncMS     []float64
	spans       int
}

// slot is one lifecycle stage of one traced message on one member.
type slot struct {
	group, source uint32
	local         uint64
	node          uint32
	stage         telemetry.Stage
}

// readSpans parses every member's span dump. gapNS is the CBR period
// the sources ran at.
func readSpans(files []string, gapNS int64) (spanStats, error) {
	st := spanStats{stages: map[string][]float64{}}
	type pub struct {
		source uint32
		lateNS int64
	}
	var pubs []pub
	minLate := map[uint32]int64{}
	first := map[slot]int64{}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return st, err
		}
		_, spans, err := wire.ParseTraceDump(f)
		f.Close()
		if err != nil {
			return st, fmt.Errorf("%s: %w", path, err)
		}
		st.spans += len(spans)
		for _, sp := range spans {
			stage, ok := telemetry.ParseStage(sp.Stage)
			if !ok {
				continue
			}
			switch stage {
			case telemetry.StagePublish:
				late := sp.WallNS - int64(sp.Local-1)*gapNS
				if m, ok := minLate[sp.Source]; !ok || late < m {
					minLate[sp.Source] = late
				}
				pubs = append(pubs, pub{sp.Source, late})
			case telemetry.StageRetransmit:
				st.retransmits++
			case telemetry.StageNackTX:
				st.nackTX++
			case telemetry.StageFsync:
				st.fsyncMS = append(st.fsyncMS, float64(sp.DurNS)/1e6)
			}
			if stage.Lifecycle() {
				k := slot{sp.Group, sp.Source, sp.Local, sp.Node, stage}
				if t, seen := first[k]; !seen || sp.WallNS < t {
					first[k] = sp.WallNS
				}
			}
		}
	}
	st.published = len(pubs)
	for _, p := range pubs {
		st.genLate = append(st.genLate, float64(p.lateNS-minLate[p.source])/1e6)
	}
	stitchPaths(first, st.stages)
	return st, nil
}

// stitchPaths rebuilds every sampled message's critical path to each
// member that delivered it, the way ringnet-trace does: the source's
// publish→outbox_enqueue→outbox_flush→tx chain, then the deliverer's
// rx→wq_accept→stamp→mq_ready→deliver chain (stamp onwards for the
// source's own delivery), keeping the first occurrence of each stage
// and the stages present. All members share this process's clock, so
// no offset correction is needed and the hops keep full precision.
func stitchPaths(first map[slot]int64, stages map[string][]float64) {
	src := []telemetry.Stage{telemetry.StagePublish, telemetry.StageEnqueue, telemetry.StageFlush, telemetry.StageTX}
	rcv := []telemetry.Stage{telemetry.StageRX, telemetry.StageWQAccept, telemetry.StageStamp, telemetry.StageMQReady, telemetry.StageDeliver}
	type point struct {
		stage telemetry.Stage
		t     int64
	}
	for k := range first {
		if k.stage != telemetry.StageDeliver {
			continue
		}
		at := func(node uint32, s telemetry.Stage) (int64, bool) {
			t, ok := first[slot{k.group, k.source, k.local, node, s}]
			return t, ok
		}
		pubT, ok := at(k.source, telemetry.StagePublish)
		if !ok {
			continue
		}
		var pts []point
		for _, s := range src {
			if t, ok := at(k.source, s); ok {
				pts = append(pts, point{s, t})
			}
		}
		chain := rcv
		if k.node == k.source {
			chain = rcv[2:]
		}
		for _, s := range chain {
			if t, ok := at(k.node, s); ok {
				pts = append(pts, point{s, t})
			}
		}
		if len(pts) < 2 {
			continue
		}
		for i := 1; i < len(pts); i++ {
			row := pts[i-1].stage.String() + "→" + pts[i].stage.String()
			stages[row] = append(stages[row], float64(pts[i].t-pts[i-1].t)/1e6)
		}
		last := pts[len(pts)-1]
		stages[e2eRow] = append(stages[e2eRow], float64(last.t-pubT)/1e6)
	}
}
