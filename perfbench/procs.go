package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// userHZ is the unit of the CPU times in /proc/<pid>/stat (USER_HZ,
// which Linux fixes at 100 for user space).
const userHZ = 100

// daemon is one started process of the system under test.
type daemon struct {
	name    string
	cmd     *exec.Cmd
	metrics string // host:port of its /metrics endpoint
	done    chan struct{}
	err     error // exit status, valid after done closes
}

// startDaemon starts bin with args, logging to <dir>/<name>.log. The
// child is killed if the benchmark dies without reaping it.
func startDaemon(bin, dir, name, metricsAddr string, args ...string) (*daemon, error) {
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append(args, "-metrics", metricsAddr)...)
	cmd.Dir = dir
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, metrics: metricsAddr, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	return d, nil
}

// exited reports whether the process has ended.
func (d *daemon) exited() bool {
	select {
	case <-d.done:
		return true
	default:
		return false
	}
}

// stop kills the daemon and waits until it has been reaped. It is safe to
// call more than once.
func (d *daemon) stop() {
	if !d.exited() {
		_ = d.cmd.Process.Kill() // fails only if it already exited
	}
	<-d.done
}

// cpuTicks reads the daemon's user+system CPU time so far.
func (d *daemon) cpuTicks() (uint64, error) {
	return procCPUTicks(d.cmd.Process.Pid)
}

func procCPUTicks(pid int) (uint64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	u, s, err := parseProcStat(b)
	return u + s, err
}

// hostStealTicks reads the time the hypervisor gave this machine's CPUs
// to other guests (the steal column of /proc/stat's cpu line).
func hostStealTicks() (uint64, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	return parseSteal(b)
}

// parseSteal extracts the steal column, the eighth number of the
// aggregate cpu line, from the contents of /proc/stat.
func parseSteal(b []byte) (uint64, error) {
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("no steal column in /proc/stat line %q", line)
	}
	return strconv.ParseUint(f[8], 10, 64)
}

// parseProcStat extracts utime and stime (fields 14 and 15) from the
// contents of /proc/<pid>/stat. The command name (field 2) is in
// parentheses and may itself hold spaces and parentheses, so fields are
// counted from the last ')'.
func parseProcStat(b []byte) (utime, stime uint64, err error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, 0, errors.New("proc stat: no command name")
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state), so field n is f[n-3].
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("proc stat: %d fields after the command name", len(f))
	}
	if utime, err = strconv.ParseUint(f[11], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("proc stat utime: %w", err)
	}
	if stime, err = strconv.ParseUint(f[12], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return utime, stime, nil
}

// peakRSSKB reads the daemon's peak resident set size (VmHWM).
func (d *daemon) peakRSSKB() (uint64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatusField(b, "VmHWM")
}

// parseStatusField reads a "Key:  N kB" line of /proc/<pid>/status.
func parseStatusField(b []byte, key string) (uint64, error) {
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || k != key {
			continue
		}
		f := strings.Fields(v)
		if len(f) == 0 {
			break
		}
		return strconv.ParseUint(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// series is one scrape of a /metrics endpoint: full series text
// (name, labels and any histogram suffix) to value.
type series map[string]float64

// parseMetrics parses the plain-text /metrics format, one
// "<series> <value>" per line.
func parseMetrics(r io.Reader) (series, error) {
	out := make(series)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// sum adds every series of metric name whose labels contain each of the
// given label pairs (`k="v"`) and whose text after the label set equals
// suffix (e.g. "_sum_ms" for a histogram's sum). ok is false when no
// series matched.
func (s series) sum(name, suffix string, labels ...string) (total float64, ok bool) {
	for k, v := range s {
		base, rest := k, ""
		lbl := ""
		if i := strings.IndexByte(k, '{'); i >= 0 {
			j := strings.IndexByte(k, '}')
			if j < i {
				continue
			}
			base, lbl, rest = k[:i], k[i+1:j], k[j+1:]
		}
		if base != name || rest != suffix || !hasLabels(lbl, labels) {
			continue
		}
		total += v
		ok = true
	}
	return total, ok
}

func hasLabels(set string, want []string) bool {
	have := strings.Split(set, ",")
	for _, w := range want {
		found := false
		for _, h := range have {
			if h == w {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

var scrapeClient = &http.Client{Timeout: 5 * time.Second}

// scrape reads a daemon's /metrics.
func scrape(ctx context.Context, addr string) (series, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := scrapeClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics %s: %s", addr, resp.Status)
	}
	return parseMetrics(resp.Body)
}

// ports hands out loopback ports that were free for both TCP and UDP
// when checked, never the same one twice in a process.
type ports struct{ used map[int]bool }

func (p *ports) next() (int, error) {
	if p.used == nil {
		p.used = make(map[int]bool)
	}
	for range 100 {
		tl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		port := tl.Addr().(*net.TCPAddr).Port
		ul, err := net.ListenPacket("udp", fmt.Sprintf("127.0.0.1:%d", port))
		tl.Close()
		if err != nil {
			continue
		}
		ul.Close()
		if p.used[port] {
			continue
		}
		p.used[port] = true
		return port, nil
	}
	return 0, errors.New("no free loopback port found")
}

func (p *ports) addr() (string, error) {
	port, err := p.next()
	return fmt.Sprintf("127.0.0.1:%d", port), err
}
