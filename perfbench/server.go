package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one running `leo-runtime -serve` child process.
type serverProc struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	shards int
	ready  time.Duration // spawn to the readiness line
	exited chan struct{}
}

var readyLine = regexp.MustCompile(`serve: listening on (\S+) classes=(\d+) shards=(\d+)`)

// startServer spawns the server and waits for its readiness line, which it
// prints once every class prior is built and the listener is bound. The
// child is killed if this process dies first.
func startServer(bin string, args []string, logPath string) (*serverProc, error) {
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logFile
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logFile.Close()
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &serverProc{cmd: cmd, exited: make(chan struct{})}
	found := make(chan []string, 1)
	go func() {
		// Copy everything to the log; hand the readiness line over once.
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			fmt.Fprintln(logFile, sc.Text())
			if m := readyLine.FindStringSubmatch(sc.Text()); m != nil && !sent {
				found <- m
				sent = true
			}
		}
		io.Copy(io.Discard, stdout)
		cmd.Wait()
		logFile.Close()
		close(p.exited)
	}()
	select {
	case m := <-found:
		p.ready = time.Since(start)
		p.base = "http://" + m[1]
		p.shards, _ = strconv.Atoi(m[3])
		return p, nil
	case <-p.exited:
		return nil, fmt.Errorf("server exited before becoming ready (see %s)", logPath)
	case <-time.After(150 * time.Second):
		p.stop()
		return nil, fmt.Errorf("server not ready after 150 s (see %s)", logPath)
	}
}

// peakRSSMB reads the child's peak resident set (VmHWM) in MB.
func (p *serverProc) peakRSSMB() (float64, error) {
	return peakRSSOf(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
}

func peakRSSOf(statusPath string) (float64, error) {
	b, err := os.ReadFile(statusPath)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", statusPath)
}

// stop kills the server and waits for it to exit. The benchmark throws its
// state away, so there is nothing to drain.
func (p *serverProc) stop() {
	p.cmd.Process.Kill()
	<-p.exited
}

// scrape is one parsed /metrics exposition: each sample keyed by its series
// name with labels, exactly as printed.
type scrape map[string]float64

func scrapeMetrics(base string) (scrape, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := scrape{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta is after minus before for every series in after.
func (after scrape) delta(before scrape) scrape {
	d := scrape{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// add accumulates another delta into s.
func (s scrape) add(d scrape) {
	for k, v := range d {
		s[k] += v
	}
}

// histogram extracts a histogram's bucket bounds and cumulative counts.
func (s scrape) histogram(name string) (bounds, cum []float64) {
	prefix := name + `_bucket{le="`
	type bucket struct{ le, c float64 }
	var bs []bucket
	for k, v := range s {
		rest, ok := strings.CutPrefix(k, prefix)
		if !ok {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"}`), 64)
		if err != nil {
			continue
		}
		bs = append(bs, bucket{le, v})
	}
	sort.Slice(bs, func(a, b int) bool { return bs[a].le < bs[b].le })
	for _, b := range bs {
		bounds = append(bounds, b.le)
		cum = append(cum, b.c)
	}
	return bounds, cum
}

// cpuTicks is the machine-wide CPU time from /proc/stat: all of it, and the
// part a hypervisor gave to other guests (steal). A run with much steal
// measured a slower machine; the share is printed beside the results.
type cpuTicks struct{ total, steal float64 }

func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	// cpu user nice system idle iowait irq softirq steal ...; guest time is
	// already inside user.
	fields := strings.Fields(line)
	if len(fields) < 9 {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, f := range fields[1:9] {
		v, _ := strconv.ParseFloat(f, 64)
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

func (after cpuTicks) stealPct(before cpuTicks) float64 {
	if after.total <= before.total {
		return 0
	}
	return 100 * (after.steal - before.steal) / (after.total - before.total)
}
