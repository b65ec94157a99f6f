package main

// /proc readers: the child's CPU time and peak resident set, and the
// environment fingerprint written into every results file.

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// clockTick is USER_HZ, the unit of the utime/stime fields of
// /proc/<pid>/stat: 100 on every Linux architecture Go supports.
const clockTick = 100

// parseStatCPU returns utime+stime in seconds from the contents of
// /proc/<pid>/stat. The command name (field 2) may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat []byte) (float64, error) {
	end := bytes.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	fields := strings.Fields(string(stat[end+1:]))
	// fields[0] is field 3 (state); utime and stime are fields 14, 15.
	if len(fields) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(fields))
	}
	utime, err := strconv.ParseUint(fields[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	stime, err := strconv.ParseUint(fields[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return float64(utime+stime) / clockTick, nil
}

// parseVmHWM returns the peak resident set in MB from the contents of
// /proc/<pid>/status.
func parseVmHWM(status []byte) (float64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: VmHWM: %w", err)
		}
		return float64(kb) / 1024, nil
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

func childCPUSeconds(pid int) (float64, error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(stat)
}

func childPeakRSSMB(pid int) (float64, error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(status)
}

// fingerprint is the environment a result was measured in.
type fingerprint struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	DataDirFS  string `json:"data_dir_fs"`
}

func readFingerprint(dataDir string) fingerprint {
	fp := fingerprint{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		Kernel:     "unknown",
		DataDirFS:  filesystemOf(dataDir),
	}
	if cpuinfo, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(cpuinfo), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if rel, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(rel))
	}
	return fp
}

// filesystemOf names the filesystem type holding dir: that of the
// mount whose mount point is the longest prefix of dir.
func filesystemOf(dir string) string {
	best, fs := -1, "unknown"
	mounts, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return fs
	}
	for _, line := range strings.Split(string(mounts), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, fs = len(mp), f[2]
		}
	}
	return fs
}
