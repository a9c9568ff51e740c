// Command wirebench is RingNet's checked-in wire benchmark: a 3-member
// ring of in-process wire.Nodes over loopback UDP, driven open-loop by
// each member's own CBR source, measured end to end (clean runs) and
// layer by layer (an instrumented run with the lifecycle trace plane, a
// CPU profile and /metrics scrapes, plus timed calls into the layers'
// public functions). See README.md beside this file.
//
// Usage, from the repository root (run.sh builds this binary and the
// ringnet-trace stitcher, then execs it):
//
//	bash wirebench/run.sh --workload steady --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set, with --trace 1 the per-layer set. A
// run that fails the correctness gate or the hard cutoff prints its
// result with correct=false and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// workload is one offered load: every member sources rateHz messages
// per second of payload bytes, with optional inbound loss/jitter at the
// transport's seeded injector and an optional durable store.
type workload struct {
	name     string
	rateHz   float64
	payload  int
	loss     float64
	jitterUS int64
	durable  bool
}

// lossFree reports whether the workload injects no faults, so repair
// machinery (really-lost slots, injected drops) must stay idle.
func (w workload) lossFree() bool { return w.loss == 0 }

// The workloads, each open loop at a fixed rate per member (README.md
// gives the reasons in full). There is no higher-rate peak workload: at
// 5000, 6000 and 8000 msg/s per member the ring wedged in one 4 s
// repetition of every 40 to 150 on a 2-vCPU host, and a workload that
// sometimes fails gives no bounded number.
var workloads = []workload{
	// Fixed per-message and per-datagram costs: little batching, a
	// small backlog, no repair, no store.
	{name: "steady", rateHz: 4000, payload: 64},
	// Per-hop retransmission, Nack repair, MQ gaps, 1 KB copies and the
	// store's append/fsync. 3% loss rather than 1%: at 1% the repair
	// stalls are few enough per run that the latency tail swung ±30%
	// between runs.
	{name: "lossy-durable", rateHz: 2000, payload: 1024, loss: 0.03, jitterUS: 1000, durable: true},
}

const (
	// cleanReps is how many clusters a --trace 0 run assembles in turn;
	// it reports the median over them, so one slow start or one GC-heavy
	// repetition does not set the figure.
	cleanReps = 8

	// budget bounds a whole run, builds excluded: the hard cutoff of the
	// last repetition never reaches past it.
	budget = 150 * time.Second
)

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	testing.Init() // registers -test.benchtime for the layer-call timings
	wname := flag.String("workload", "", "workload name: steady or lossy-durable")
	seed := flag.Uint64("seed", 1, "seed for Config.Seed (fault injector and engine)")
	seconds := flag.Int("seconds", 10, "seconds of offered load measured per run")
	trace := flag.Int("trace", 0, "0: clean runs, end-to-end metrics; 1: instrumented run, per-layer metrics")
	stitcher := flag.String("stitcher", "", "path to the ringnet-trace binary (required with -trace 1)")
	commit := flag.String("commit", "unknown", "source revision recorded with the result")
	workRoot := flag.String("work", ".bench_out", "directory for scratch files and result records")
	flag.Parse()

	w, ok := findWorkload(*wname)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "wirebench: need -workload (steady|lossy-durable), -seconds >= 1, -trace 0|1\n")
		return 2
	}
	if *trace == 1 && *stitcher == "" {
		fmt.Fprintln(os.Stderr, "wirebench: -trace 1 needs -stitcher")
		return 2
	}
	deadline := time.Now().Add(budget)
	env := recordEnv(w.name, *seed, *trace, *commit)
	envLine, _ := json.Marshal(env)
	fmt.Printf("env: %s\n", envLine)

	work := filepath.Join(*workRoot, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "wirebench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	b := &bench{w: w, seed: *seed, seconds: *seconds, work: work, deadline: deadline, stitcher: *stitcher}
	var res result
	var err error
	if *trace == 0 {
		res, err = b.clean()
	} else {
		res, err = b.instrumented()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "wirebench: %v\n", err)
		return 1
	}
	printMetrics(res)
	record(*workRoot, env, res)
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// printMetrics writes every metric by name with its unit, plus the
// failure ratio, ahead of the JSON result line.
func printMetrics(res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("metrics:")
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	frac := 0.0
	if res.Attempted > 0 {
		frac = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Printf("  %-36s %14.6g ratio (%d of %d expected deliveries)\n", "failed_frac", frac, res.Failed, res.Attempted)
}

// record keeps the result with its environment under the work root,
// one file per (workload, seed, mode), for later comparison by hand.
func record(root string, env envRecord, res result) {
	doc := struct {
		Env    envRecord `json:"env"`
		Result result    `json:"result"`
	}{env, res}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return
	}
	path := filepath.Join(root, fmt.Sprintf("%s-seed%d-trace%d.json", env.Workload, env.Seed, env.Trace))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "wirebench: record: %v\n", err)
	}
}
