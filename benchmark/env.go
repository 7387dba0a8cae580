package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"

	"dragonfly/internal/prof"
)

// procs is the concurrency every workload is pinned to: GOMAXPROCS, sweep
// pool width and local runners. It is this container's nproc, fixed so the
// numbers measure the program and not the Go scheduler.
const procs = 2

// environment is the noise record written with every result: enough to
// tell whether two result files are comparable.
type environment struct {
	NumCPU       int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	CPUModel     string  `json:"cpu_model"`
	GoVersion    string  `json:"go_version"`
	VCSRevision  string  `json:"vcs_revision"`
	LoadAvgStart float64 `json:"loadavg_1m_start"`
	WorkDir      string  `json:"workdir"`
	WorkDirFS    string  `json:"workdir_fs"`
}

func readEnvironment(workdir string) environment {
	e := environment{
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		CPUModel:     cpuModel(),
		GoVersion:    runtime.Version(),
		VCSRevision:  "unknown",
		LoadAvgStart: loadAvg(),
		WorkDir:      workdir,
		WorkDirFS:    fsType(workdir),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				e.VCSRevision = s.Value
			}
		}
	}
	return e
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func loadAvg() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64)
	return v
}

// fsType names the filesystem under dir: checkpoint and journal costs are
// fsync costs, and those belong to the filesystem as much as to the code.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x794c7630:
		return "overlayfs"
	case 0xef53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS restarts the high-water mark at the current resident set, so
// that a round's peak is its own (Linux: "5" to /proc/self/clear_refs). It
// reports false where the kernel or the sandbox does not allow it.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// settle returns freed memory to the OS between phases, so one phase's
// garbage is not the next phase's GC pause or resident set.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// section measures one timed section: wall clock, process CPU and bytes
// allocated.
type section struct {
	start   int64
	cpu0    float64
	alloc0  uint64
	WallS   float64
	CPUS    float64
	AllocMB float64
}

func beginSection() *section {
	settle()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return &section{start: nanotime(), cpu0: prof.CPUSeconds(), alloc0: m.TotalAlloc}
}

func (s *section) end() {
	wall := nanotime() - s.start
	cpu := prof.CPUSeconds()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.WallS = float64(wall) / 1e9
	s.CPUS = cpu - s.cpu0
	s.AllocMB = float64(m.TotalAlloc-s.alloc0) / (1 << 20)
}

// allocMB runs fn and returns the megabytes it allocated.
func allocMB(fn func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
}
