package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// samples is one scrape of a Prometheus text exposition: value by
// sample name, labels included verbatim (`name{k="v"}`).
type samples map[string]float64

// parseMetrics reads a Prometheus text exposition. Comment lines are
// skipped; any other line must be `name[{labels}] value`.
func parseMetrics(text []byte) (samples, error) {
	out := samples{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut <= 0 {
			return nil, fmt.Errorf("metrics line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:cut]] = v
	}
	return out, sc.Err()
}

// delta returns after − before for every sample in after (a sample
// missing before counts from zero).
func delta(before, after samples) samples {
	d := samples{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// sum adds every sample of the family name, across label sets. A bare
// name (no labels) is included.
func (s samples) sum(name string) float64 {
	total := s[name]
	prefix := name + "{"
	for k, v := range s {
		if strings.HasPrefix(k, prefix) {
			total += v
		}
	}
	return total
}

// plus returns the sample-wise sum of s and t.
func (s samples) plus(t samples) samples {
	out := samples{}
	for k, v := range s {
		out[k] = v
	}
	for k, v := range t {
		out[k] += v
	}
	return out
}

// scrape GETs base/metrics and parses it.
func scrape(ctx context.Context, client *http.Client, base string) (samples, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", base, resp.StatusCode)
	}
	return parseMetrics(buf.Bytes())
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// procCPU returns a process's user+system CPU time from /proc.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: no command field", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields %q %q", pid, f[11], f[12])
	}
	return time.Duration(ut+st) * clockTick, nil
}

// procPeakRSS returns a process's peak resident set (VmHWM) in MB.
func procPeakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: %q: %w", pid, line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no VmHWM", pid)
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
