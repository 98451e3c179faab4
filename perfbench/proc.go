package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// userHZ is the unit of the CPU times in /proc/<pid>/stat. Linux
// exports them in USER_HZ, which is 100 on every architecture Go
// supports regardless of the kernel's internal tick rate.
const userHZ = 100

// parseStatCPU returns utime+stime from the contents of a
// /proc/<pid>/stat file. The command name (field 2) is parenthesised
// and may itself contain spaces and parentheses, so fields are counted
// from the last ')'.
func parseStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat: no command field")
	}
	// After ')' come fields 3 (state) onwards; utime and stime are
	// fields 14 and 15.
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the command", len(f))
	}
	var ticks int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("stat: %w", err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / userHZ, nil
}

// parseStatusKB returns the value in KiB of one "Key:   N kB" line of a
// /proc/<pid>/status file.
func parseStatusKB(r io.Reader, key string) (float64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || k != key {
			continue
		}
		f := strings.Fields(v)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("status: malformed %s line %q", key, sc.Text())
		}
		return strconv.ParseFloat(f[0], 64)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("status: no %s line", key)
}

// procCPU returns the CPU time process pid has used.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// peakRSS returns the peak resident set size (VmHWM) of the process
// whose status file is path, in MiB.
func peakRSS(path string) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	kb, err := parseStatusKB(f, "VmHWM")
	return kb / 1024, err
}

func procPeakRSS(pid int) (float64, error) { return peakRSS(fmt.Sprintf("/proc/%d/status", pid)) }
func selfPeakRSS() (float64, error)        { return peakRSS("/proc/self/status") }

// fsTypes names the statfs magic numbers of the filesystems a journal
// directory is likely to sit on.
var fsTypes = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	if name, ok := fsTypes[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// sourceCommit identifies the code under test: the git HEAD when the
// checkout has a .git directory, otherwise "none".
func sourceCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}
