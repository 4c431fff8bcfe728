package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// clockTicks is Linux's USER_HZ, the unit of /proc/<pid>/stat's
// utime and stime. It is 100 on every architecture Go supports.
const clockTicks = 100

// parseStatCPU returns utime+stime, in clock ticks, from the text of
// /proc/<pid>/stat. The command name in field 2 may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat string) (uint64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field")
	}
	// After ") " come fields 3 (state) onwards: utime is field 14,
	// stime field 15, so indexes 11 and 12 here.
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command, want at least 13", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return utime + stime, nil
}

// parseVmHWM returns the peak resident set size in KiB from the text
// of /proc/<pid>/status.
func parseVmHWM(status string) (uint64, error) {
	sc := bufio.NewScanner(strings.NewReader(status))
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", sc.Text())
		}
		return strconv.ParseUint(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// procCPU is a process's user+system CPU time so far.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	ticks, err := parseStatCPU(string(b))
	if err != nil {
		return 0, err
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// peakRSSMiB is a process's peak resident set size in MiB.
func peakRSSMiB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseVmHWM(string(b))
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}
