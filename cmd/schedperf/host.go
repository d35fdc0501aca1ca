package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// hostStamp names the machine and build a result file was measured on, so
// every number — speedup_vs_1w in particular — says which host it holds
// for.
type hostStamp struct {
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	CPUModel    string `json:"cpu_model"`
	Seed        uint64 `json:"seed"`
	VCSRevision string `json:"vcs_revision"`
	VCSModified bool   `json:"vcs_modified"`
}

func readHostStamp(seed uint64) hostStamp {
	h := hostStamp{
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		CPUModel:    cpuModel(),
		Seed:        seed,
		VCSRevision: "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				h.VCSRevision = s.Value
			case "vcs.modified":
				h.VCSModified = s.Value == "true"
			}
		}
	}
	return h
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown"
// where that file is not readable.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if key, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}
