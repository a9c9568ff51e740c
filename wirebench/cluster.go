package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// One repetition assembles a 3-member ring of in-process daemons over
// loopback UDP the way launchCluster in internal/wire/daemon_test.go
// does — NewNode per member, then an address exchange, then Run on
// every member concurrently — and measures it from the outside.

const (
	members = 3

	// startMS leaves room for the clock-offset exchange before the
	// sources start, as in launchCluster.
	startMS = 150

	// scrapeEvery is the instrumented run's /metrics poll period. Node.Run
	// closes the admin listener at least LingerMS (300 ms) after a member
	// converges, so two polls land in that window.
	scrapeEvery = 100 * time.Millisecond
)

// repSpec describes one repetition.
type repSpec struct {
	w      workload
	seed   uint64
	rep    int
	count  int    // messages each member sources
	dir    string // scratch: data_dir, span dumps, profile
	traced bool
	// sampleMod is trace_sample_mod for a traced repetition.
	sampleMod int
	cutoff    time.Time
}

// repOut is what one repetition measured.
type repOut struct {
	reports  []wire.Report
	runErrs  []error
	expected uint64 // deliveries each member waits for

	setup time.Duration // assembly until every member delivered once
	wall  time.Duration // assembly until every Run returned
	cpu   time.Duration // process user+sys over the same interval

	mallocs, allocBytes uint64
	gcCycles            uint32
	gcPauseNS           uint64

	// Traced repetitions only.
	final     []map[string]float64 // last /metrics scrape per member
	finalAt   []time.Duration      // when it was taken, since assembly
	spanFiles []string
	profile   string
}

// cutoffError reports a repetition the benchmark stopped itself: the
// ring did not finish before the hard cutoff.
type cutoffError struct {
	delivered []uint64
	expected  uint64
}

func (e *cutoffError) Error() string {
	return fmt.Sprintf("hard cutoff: delivered %v of %d per member", e.delivered, e.expected)
}

func (e *cutoffError) shortfall() uint64 {
	var s uint64
	for _, d := range e.delivered {
		if d < e.expected {
			s += e.expected - d
		}
	}
	return s
}

func configs(s repSpec) []wire.Config {
	cfgs := make([]wire.Config, members)
	for i := range cfgs {
		cfg := wire.Config{
			Group:   1,
			Node:    uint32(i + 1),
			Listen:  "127.0.0.1:0",
			Admin:   "127.0.0.1:0",
			Seed:    s.seed*100 + uint64(s.rep*members+i),
			Count:   s.count,
			RateHz:  s.w.rateHz,
			Payload: s.w.payload,
			StartMS: startMS,
			// The benchmark owns the cutoff; the daemon's own deadline
			// sits well past it.
			DeadlineMS: time.Until(s.cutoff).Milliseconds() + 60000,
			Loss:       s.w.loss,
			JitterUS:   s.w.jitterUS,
		}
		for j := 0; j < members; j++ {
			if j != i {
				cfg.Peers = append(cfg.Peers, wire.PeerAddr{Node: uint32(j + 1)})
			}
		}
		if s.w.durable {
			cfg.DataDir = filepath.Join(s.dir, fmt.Sprintf("data-n%d", i+1))
		}
		if s.traced {
			cfg.TraceSampleMod = s.sampleMod
			cfg.SpanPath = filepath.Join(s.dir, fmt.Sprintf("spans-n%d.ndjson", i+1))
		}
		cfgs[i] = cfg
	}
	return cfgs
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runRep runs one repetition to completion or to its hard cutoff.
func runRep(s repSpec) (*repOut, error) {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, err
	}
	cfgs := configs(s)
	out := &repOut{expected: uint64(s.count) * members}

	var prof *os.File
	if s.traced {
		out.profile = filepath.Join(s.dir, "cpu.pprof")
		f, err := os.Create(out.profile)
		if err != nil {
			return nil, err
		}
		prof = f
		for _, c := range cfgs {
			out.spanFiles = append(out.spanFiles, c.SpanPath)
		}
	}

	runtime.GC() // start every repetition from a collected heap
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t0 := time.Now()
	if prof != nil {
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof.Close()
			return nil, err
		}
	}
	stopProfile := func() {
		if prof != nil {
			pprof.StopCPUProfile()
			prof.Close()
			prof = nil
		}
	}
	defer stopProfile()

	nodes := make([]*wire.Node, members)
	for i, c := range cfgs {
		nd, err := wire.NewNode(c)
		if err != nil {
			return nil, fmt.Errorf("member %d: %w", i+1, err)
		}
		nodes[i] = nd
	}
	for i, nd := range nodes {
		for j, other := range nodes {
			if j != i {
				if err := nd.SetPeerAddr(uint32(j+1), other.LocalAddr()); err != nil {
					return nil, err
				}
			}
		}
	}
	admins := make([]string, members)
	for i, nd := range nodes {
		admins[i] = nd.AdminAddr()
	}

	out.reports = make([]wire.Report, members)
	out.runErrs = make([]error, members)
	finished := make([]chan struct{}, members)
	var wg sync.WaitGroup
	for i, nd := range nodes {
		finished[i] = make(chan struct{})
		wg.Add(1)
		go func(i int, nd *wire.Node) {
			defer wg.Done()
			defer close(finished[i])
			out.reports[i], out.runErrs[i] = nd.Run()
		}(i, nd)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	cutoff := time.NewTimer(time.Until(s.cutoff))
	defer cutoff.Stop()

	stopOnCutoff := func() error {
		stopProfile()
		e := &cutoffError{expected: out.expected, delivered: make([]uint64, members)}
		for i := range nodes {
			select {
			case <-finished[i]:
				e.delivered[i] = out.reports[i].Delivered
			default:
				if m, err := scrape(admins[i]); err == nil {
					e.delivered[i] = uint64(sumFamily(m, "ringnet_delivered_total"))
				}
			}
		}
		return e
	}

	// Set-up ends when every member has made its first ordered delivery.
	// Snapshot is a read through each group's driver gate, polled only
	// until then, from its own goroutine: a driver too busy to answer
	// must not hold off the cutoff.
	setupDone := make(chan time.Duration, 1)
	go func() {
		seen := make([]bool, members)
		for waiting := members; waiting > 0; {
			select {
			case <-done:
				setupDone <- time.Since(t0)
				return
			case <-time.After(time.Millisecond):
			}
			for i, nd := range nodes {
				if !seen[i] && nd.Snapshot().Delivered > 0 {
					seen[i] = true
					waiting--
				}
			}
		}
		setupDone <- time.Since(t0)
	}()
	select {
	case out.setup = <-setupDone:
	case <-cutoff.C:
		return out, stopOnCutoff()
	}

	var sc *scraper
	if s.traced {
		sc = startScraper(admins, out.expected, t0)
	}
	select {
	case <-done:
	case <-cutoff.C:
		if sc != nil {
			sc.stop()
		}
		return out, stopOnCutoff()
	}
	out.wall = time.Since(t0)
	out.cpu = cpuTime() - cpu0
	stopProfile()
	runtime.ReadMemStats(&ms1)
	out.mallocs = ms1.Mallocs - ms0.Mallocs
	out.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	out.gcCycles = ms1.NumGC - ms0.NumGC
	out.gcPauseNS = ms1.PauseTotalNs - ms0.PauseTotalNs
	if sc != nil {
		out.final, out.finalAt = sc.stop()
	}
	return out, nil
}

// scrape fetches and parses one member's /metrics.
func scrape(addr string) (map[string]float64, error) {
	cl := &http.Client{Timeout: 2 * time.Second}
	resp, err := cl.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	return telemetry.ParseExposition(resp.Body)
}

// scraper polls every member's /metrics until that member has
// delivered its expected count, keeping that scrape as the member's
// final one: Node.Run closes the listener before it returns, so the
// last scrape has to be taken while the member lingers.
type scraper struct {
	quit chan struct{}
	wg   sync.WaitGroup

	mu      sync.Mutex
	final   []map[string]float64
	finalAt []time.Duration
}

func startScraper(admins []string, expected uint64, t0 time.Time) *scraper {
	sc := &scraper{
		quit:    make(chan struct{}),
		final:   make([]map[string]float64, len(admins)),
		finalAt: make([]time.Duration, len(admins)),
	}
	sc.wg.Add(1)
	go func() {
		defer sc.wg.Done()
		t := time.NewTicker(scrapeEvery)
		defer t.Stop()
		for {
			select {
			case <-sc.quit:
				return
			case <-t.C:
			}
			pending := 0
			for i, addr := range admins {
				sc.mu.Lock()
				have := sc.final[i] != nil
				sc.mu.Unlock()
				if have {
					continue
				}
				pending++
				m, err := scrape(addr)
				if err != nil || uint64(sumFamily(m, "ringnet_delivered_total")) < expected {
					continue
				}
				sc.mu.Lock()
				sc.final[i] = m
				sc.finalAt[i] = time.Since(t0)
				sc.mu.Unlock()
				pending--
			}
			if pending == 0 {
				return
			}
		}
	}()
	return sc
}

// stop ends polling and returns the final scrapes (nil for a member
// whose listener closed before it was caught at its expected count).
func (sc *scraper) stop() ([]map[string]float64, []time.Duration) {
	close(sc.quit)
	sc.wg.Wait()
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.final, sc.finalAt
}
