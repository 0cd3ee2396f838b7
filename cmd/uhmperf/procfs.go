package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat; Linux
// fixes it at 100 on every mainstream architecture.
const clockTicks = 100

// procPath names a /proc file of a process; pid 0 is this process.
func procPath(pid int, file string) string {
	if pid == 0 {
		return "/proc/self/" + file
	}
	return fmt.Sprintf("/proc/%d/%s", pid, file)
}

// parseStatCPU returns utime+stime from the text of /proc/<pid>/stat.  The
// command name (field 2) may hold spaces and parentheses, so fields are
// counted from the last ')'.
func parseStatCPU(stat string) (time.Duration, error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("stat: no command field")
	}
	// fields[0] is field 3 (state); utime and stime are fields 14 and 15.
	fields := strings.Fields(stat[end+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the command", len(fields))
	}
	var ticks int64
	for _, f := range fields[11:13] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("stat: cpu field %q: %w", f, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// procCPU is the user+system CPU time a process has used so far.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(procPath(pid, "stat"))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(data))
}

// parseVmRSS returns the resident set size, in bytes, from the text of
// /proc/<pid>/status.
func parseVmRSS(status string) (int64, error) {
	sc := bufio.NewScanner(strings.NewReader(status))
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("status: malformed VmRSS line %q", sc.Text())
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("status: VmRSS: %w", err)
		}
		return kb << 10, nil
	}
	return 0, fmt.Errorf("status: no VmRSS line")
}

// procRSS is a process's resident set size in bytes.
func procRSS(pid int) (int64, error) {
	data, err := os.ReadFile(procPath(pid, "status"))
	if err != nil {
		return 0, err
	}
	return parseVmRSS(string(data))
}

// rssInterval is how often sampleRSS reads resident memory.
const rssInterval = 50 * time.Millisecond

// every calls fn now and every interval until stop is called, and once more
// when it is; stop returns the first error fn returned.
func every(interval time.Duration, fn func(now time.Time) error) (stop func() error) {
	first := fn(time.Now())
	done := make(chan struct{})
	out := make(chan error)
	go func() {
		err := first
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				out <- cmp.Or(err, fn(time.Now()))
				return
			case <-t.C:
				err = cmp.Or(err, fn(time.Now()))
			}
		}
	}()
	return func() error {
		close(done)
		return <-out
	}
}

// sampleRSS reads the summed resident memory of pids, in MiB, now and every
// rssInterval until stop is called; stop returns the samples.
func sampleRSS(pids []int) (stop func() ([]float64, error)) {
	var samples []float64
	stopSampling := every(rssInterval, func(time.Time) error {
		var total int64
		for _, pid := range pids {
			b, err := procRSS(pid)
			if err != nil {
				return err
			}
			total += b
		}
		samples = append(samples, float64(total)/(1<<20))
		return nil
	})
	return func() ([]float64, error) {
		err := stopSampling()
		return samples, err
	}
}

// stealInterval is how often sampleSteal reads the machine's stolen time.
// Quarter-second intervals left out the stalls that set tail latency on a
// shared host while keeping most of the window.
const stealInterval = 250 * time.Millisecond

// stealSample is the machine's cumulative stolen time, in jiffies, at a
// moment.
type stealSample struct {
	at    time.Time
	steal int64
}

// sampleSteal reads the machine's stolen time every stealInterval until
// stop is called; stop returns the samples, the first taken when
// sampleSteal was called and the last when stop was.
func sampleSteal() (stop func() ([]stealSample, error)) {
	var samples []stealSample
	stopSampling := every(stealInterval, func(now time.Time) error {
		steal, _, err := hostSteal()
		samples = append(samples, stealSample{now, steal})
		return err
	})
	return func() ([]stealSample, error) {
		err := stopSampling()
		return samples, err
	}
}

// parseSteal returns the steal and total jiffies of the "cpu" line of
// /proc/stat: the time a hypervisor ran something else while this machine's
// CPUs had work, and all time accounted.
func parseSteal(stat string) (steal, total int64, err error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("stat: malformed cpu line %q", line)
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("stat: cpu field %q: %w", x, err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// hostSteal reads the machine's cumulative steal and total jiffies.
func hostSteal() (steal, total int64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	return parseSteal(string(data))
}

// cpuOf sums procCPU over processes.
func cpuOf(pids []int) (time.Duration, error) {
	var total time.Duration
	for _, pid := range pids {
		c, err := procCPU(pid)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}
