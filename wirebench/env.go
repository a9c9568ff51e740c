package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

// envRecord is printed and stored with every result: a figure means
// little without the machine and the revision that produced it.
type envRecord struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Trace      int    `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Members    int    `json:"members"`
	Network    string `json:"network"`
}

func recordEnv(workload string, seed uint64, trace int, commit string) envRecord {
	return envRecord{
		Workload:   workload,
		Seed:       seed,
		Trace:      trace,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		Commit:     commit,
		Members:    members,
		Network:    "loopback UDP on 127.0.0.1 inside one process; no real link",
	}
}

// cpuModel reads the first "model name" from /proc/cpuinfo, or
// "unknown" where that file does not exist.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
