package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// fingerprint identifies the host and build a record was taken on, so
// records can later be appended to a trajectory and compared only with
// records from a like host (ROADMAP 1d).
type fingerprint struct {
	NProc      int
	GoMaxProcs int
	GoVersion  string
	CPUModel   string
	LLCBytes   int64
	Commit     string
}

func hostFingerprint() fingerprint {
	return fingerprint{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		LLCBytes:   llcBytes(),
		Commit:     commit(),
	}
}

func (f fingerprint) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q llc_bytes=%d commit=%s",
		f.NProc, f.GoMaxProcs, f.GoVersion, f.CPUModel, f.LLCBytes, f.Commit)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// llcBytes is the size of cpu0's highest-level cache, 0 when the host
// does not say. The bandwidth pools must be larger than this.
func llcBytes() int64 {
	var best int64
	for i := 0; i < 8; i++ {
		b, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", i))
		if err != nil {
			break
		}
		s := strings.TrimSpace(string(b))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		var n int64
		if _, err := fmt.Sscan(s, &n); err == nil && n*mult > best {
			best = n * mult
		}
	}
	return best
}

// commit is the git commit of the checkout the benchmark runs from the
// root of, "unknown" where that is not a repository (the driver's
// checkout is not one; git is then not asked, so it never searches the
// directories above the checkout).
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mapAnon maps n bytes of private anonymous memory outside the Go heap,
// so each set-up pays its own page faults and a 512 MiB pool never
// moves the garbage collector's pacing.
func mapAnon(n int) ([]byte, error) {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mmap %d bytes: %w", n, err)
	}
	return b, nil
}

func unmap(b []byte) {
	if b != nil {
		_ = syscall.Munmap(b) // teardown of a mapping this process made; nothing to do on failure
	}
}
