package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// median returns the middle value (mean of the two middle values for an
// even count). xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile with linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// percentileOK reports whether at least ten samples lie beyond the
// q-quantile, the condition for reporting that percentile at all.
func percentileOK(n int, q float64) bool {
	return float64(n)*(1-q) >= 10
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// heapCounters reads cumulative heap bytes allocated and GC cycles
// completed by this process.
func heapCounters() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// cpuSeconds reads the CPU time a process has consumed, all its threads
// together (pid 0: this process). The kernel's CPU clock leaves out time
// the hypervisor took from the virtual CPU (steal), which wall-clock time
// on a shared virtual machine does not; that is why the gated metrics
// are CPU times.
func cpuSeconds(pid int) (float64, error) {
	clock := uintptr(2) // CLOCK_PROCESS_CPUTIME_ID
	if pid != 0 {
		// The CPU-time clock of another process, as clock_getcpuclockid
		// builds it: CPUCLOCK_SCHED of process pid.
		clock = uintptr((^pid)<<3 | 2)
	}
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("CPU clock of pid %d: %w", pid, errno)
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9, nil
}

// selfCPU is cpuSeconds(0); reading this process's own clock cannot
// fail on Linux.
func selfCPU() float64 {
	s, _ := cpuSeconds(0)
	return s
}

// peakRSSMB reads VmHWM (peak resident set) of a process from
// /proc/<pid>/status; pid "self" is this process.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// fingerprint identifies the machine and the code a result came from.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	// Revision and Dirty come from the VCS stamp of the build; a build
	// outside a git work tree has none and reads "unknown".
	Revision string `json:"revision"`
	Dirty    bool   `json:"dirty"`
	// Source is the SHA-256 over the program's Go sources and go.mod,
	// which identifies the code even where no VCS stamp exists.
	Source string `json:"source_sha256"`
}

func takeFingerprint(root string) (fingerprint, error) {
	fp := fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Revision:   "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				fp.Revision = s.Value
			case "vcs.modified":
				fp.Dirty = s.Value == "true"
			}
		}
	}
	src, err := sourceDigest(root)
	if err != nil {
		return fp, err
	}
	fp.Source = src
	return fp, nil
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

// sourceDigest hashes go.mod and every .go file of the program in path
// order, skipping the benchmark's own directory and dot-directories.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("source digest: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
