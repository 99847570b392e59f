package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// environment stamps a result with the machine and build it came from,
// so results from different machines are never compared silently.
// Fingerprint has the shape of BENCH_baseline.json's: "OS arch/CPU
// model/<cores>c".
type environment struct {
	Fingerprint string `json:"fingerprint"`
	Cores       int    `json:"cores"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	CPU         string `json:"cpu"`
	Go          string `json:"go"`
	Commit      string `json:"commit"`
}

func fingerprint() environment {
	e := environment{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     "unknown",
	}
	e.Fingerprint = fmt.Sprintf("%s %s/%s/%dc", osName(), machineArch(), e.CPU, e.Cores)
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			e.Commit = rev
			if modified == "true" {
				e.Commit += "-dirty"
			}
		}
	}
	return e
}

// osName is the kernel name `uname -s` prints.
func osName() string {
	if b, err := os.ReadFile("/proc/sys/kernel/ostype"); err == nil {
		return strings.TrimSpace(string(b))
	}
	return runtime.GOOS
}

// machineArch is the hardware name `uname -m` prints.
func machineArch() string {
	switch runtime.GOARCH {
	case "amd64":
		return "x86_64"
	case "arm64":
		return "aarch64"
	}
	return runtime.GOARCH
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
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
