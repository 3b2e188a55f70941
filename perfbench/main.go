// Command perfbench is the repository's end-to-end benchmark. It starts
// the deployed daemons (a journaled meta bindd, an application bindd,
// nsmd, hnsd and hnsgw) as separate processes on loopback sockets, loads
// a world generated from the seed into them, drives one workload from
// this single process through the client libraries' public calls, checks
// every answer, and prints one JSON result line last on standard output.
//
// run.sh builds the daemons and this program from the source tree and
// runs it:
//
//	bash perfbench/run.sh --workload warm-resolve --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics of a separate traced run (see
// perfbench/LAYERS.md).
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"hns/internal/metrics"
)

// plan is a workload's fixed load: the open loop's offered rate and the
// closed loop's in-flight window. The rates sit well below what the
// deployment sustains on a 2-CPU host, so the open loop measures latency
// rather than a growing queue.
type plan struct {
	rate        float64 // open loop, requests/s
	updateShare float64 // register-churn: share of requests that are updates
	window      int     // closed loop, requests in flight
}

var plans = map[string]plan{
	"warm-resolve":   {rate: 800, window: 8},
	"cold-resolve":   {rate: 300, window: 8},
	"register-churn": {rate: 500, updateShare: 0.3, window: 8},
}

const (
	// roundsPerRun is how many times an untraced run deploys the
	// federation and measures it (see aggregate).
	roundsPerRun = 5
	// slicesPerRound is how many open-loop and closed-loop slices, in
	// turn, a round measures.
	slicesPerRound = 6
	// ladderCalls is how many calls each rung of the traced run's
	// ladder times.
	ladderCalls = 300
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	bin      string
	work     string
}

func main() {
	var cfg config
	var traceN int
	flag.StringVar(&cfg.workload, "workload", "", "warm-resolve, cold-resolve or register-churn")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed for the world and the request streams")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceN, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.StringVar(&cfg.bin, "bin", "", "directory holding the built daemons")
	flag.StringVar(&cfg.work, "work", "", "directory for run directories (daemon logs, data, spans)")
	flag.Parse()
	cfg.trace = traceN == 1
	// The generator's own collections would add to the latencies it
	// measures; a larger GC target makes them rarer.
	debug.SetGCPercent(400)
	if _, ok := plans[cfg.workload]; !ok || cfg.seconds < 1 || traceN < 0 || traceN > 1 || cfg.bin == "" || cfg.work == "" {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload (warm-resolve|cold-resolve|register-churn), --seconds >= 1, --trace 0|1, -bin and -work")
		os.Exit(2)
	}

	// Stop on a signal or well inside the 180 s a run may take; either
	// way the daemons are killed and reaped before exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()

	res, rec, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(map[string]any{"record": rec}); err != nil {
		os.Exit(1)
	}
	if err := out.Encode(res); err != nil {
		os.Exit(1)
	}
}

// run performs one benchmark run. The run directory is removed when the
// run succeeds and kept, daemon logs included, when it fails.
func run(ctx context.Context, cfg config) (res *result, rec map[string]any, err error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(cfg.work, fmt.Sprintf("%s-s%d-", cfg.workload, cfg.seed))
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if err != nil || (res != nil && !res.Correct) {
			fmt.Fprintf(os.Stderr, "perfbench: run directory kept: %s\n", dir)
			return
		}
		os.RemoveAll(dir)
	}()

	w := newWorld(cfg.workload, cfg.seed)
	rec = runRecord(cfg)
	if cfg.trace {
		f, d, err := setUp(ctx, cfg, w, dir)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		defer f.stop()
		defer d.close()
		if res, err = runTraced(ctx, cfg, d, dir, rec); err != nil {
			return nil, nil, err
		}
		if err := f.checkAlive(); err != nil {
			return nil, nil, err
		}
		return res, rec, nil
	}

	// Untraced runs deploy the federation afresh for each round, so
	// that set-up is timed several times and no single deployment's
	// luck (process placement, collector pacing) sets a metric.
	var outs []*roundOut
	var rounds []map[string]any
	for i := range roundsPerRun {
		sub := filepath.Join(dir, fmt.Sprintf("round%d", i+1))
		if err := os.Mkdir(sub, 0o755); err != nil {
			return nil, nil, err
		}
		w.coldNext.Store(0) // a fresh deployment has seen no name
		st0, err := hostStealTicks()
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		f, d, err := setUp(ctx, cfg, w, sub)
		if err != nil {
			return nil, nil, fmt.Errorf("round %d set-up: %w", i+1, err)
		}
		setup := time.Since(t0).Seconds()
		st1, err := hostStealTicks()
		if err != nil {
			d.close()
			f.stop()
			return nil, nil, err
		}
		out, err := runE2E(ctx, cfg, d, uint64(i))
		if err == nil {
			err = f.checkAlive()
		}
		d.close()
		f.stop()
		if err != nil {
			return nil, nil, fmt.Errorf("round %d: %w", i+1, err)
		}
		out.setupS, out.setupSteal = setup, st1-st0
		out.rec["setup_s"], out.rec["setup_steal_ticks"] = setup, st1-st0
		outs = append(outs, out)
		rounds = append(rounds, out.rec)
	}
	rec["rounds"] = rounds
	res, tails := aggregate(outs)
	for k, v := range tails {
		rec[k] = v
	}
	return res, rec, nil
}

// aggregate combines the rounds. The p50, the capacity and CPU per
// request are medians over the quiet slices of all the rounds (see
// quietMedian), so that a slow spell of a shared host moves the slices it
// falls in rather than the result; set-up time is the same kind of
// median over the rounds' set-ups, and peak memory the median over the
// rounds. The second map holds figures that go to the
// run record, not the result: the p99s, and register-churn's update
// latency and capacity. On a small shared host their run-to-run spread
// (0.3 to 2.5 of the median for the p99s, up to 0.3 for the updates,
// whose every request waits on an fsync) exceeds any bound that could
// gate a change.
func aggregate(outs []*roundOut) (*result, map[string]float64) {
	res := &result{Correct: true, Metrics: make(map[string]metric)}
	var updLat []time.Duration
	var resP50, resCap, resP99, updP99, rss, setup []float64
	var openSteal, closedSteal, setupSteal []uint64
	var resCPU []float64
	var updDone float64
	var closedSecs time.Duration
	for _, o := range outs {
		res.Attempted += o.attempted
		res.Failed += o.failed
		updLat = append(updLat, o.updateLat...)
		resP50 = append(resP50, o.resolveP50...)
		resCap = append(resCap, o.resolveCap...)
		openSteal = append(openSteal, o.openSteal...)
		closedSteal = append(closedSteal, o.closedSteal...)
		resP99 = append(resP99, o.resolveP99...)
		updP99 = append(updP99, o.updateP99...)
		updDone += float64(o.updateDone)
		closedSecs += o.closedSecs
		resCPU = append(resCPU, o.cpuPerOp...)
		rss = append(rss, o.rssMB)
		setup = append(setup, o.setupS)
		setupSteal = append(setupSteal, o.setupSteal)
	}
	res.Correct = res.Failed == 0
	m := res.Metrics
	m["setup_s"] = metric{quietMedian(setup, setupSteal), "s"}
	m["resolve_p50_us"] = metric{quietMedian(resP50, openSteal), "us"}
	m["resolve_capacity_ops_s"] = metric{quietMedian(resCap, closedSteal), "1/s"}
	m["cpu_us_per_op"] = metric{quietMedian(resCPU, openSteal), "us"}
	m["rss_mb"] = metric{median(rss), "MB"}
	rec := map[string]float64{"resolve_p99_us": median(resP99)}
	if len(updLat) > 0 {
		rec["update_p50_us"] = us(percentile(updLat, 0.50))
		rec["update_p99_us"] = median(updP99)
		rec["update_capacity_ops_s"] = updDone / closedSecs.Seconds()
	}
	return res, rec
}

// quietMedian returns the median of the values of the slices that ran
// with no more host steal than the quietest quarter of them: steal is the
// time the hypervisor gave this machine's CPUs to other guests, and every
// hop of a request waits longer while it lasts. On a quiet host every
// slice without steal counts; on a busy one, the least disturbed quarter.
// The slices are chosen by a measure of the host, never by their values,
// so a change to the program moves the result as it moves every slice.
func quietMedian(vals []float64, steal []uint64) float64 {
	sorted := append([]uint64(nil), steal...)
	slices.Sort(sorted)
	limit := sorted[(len(sorted)-1)/4]
	var quiet []float64
	for i, v := range vals {
		if steal[i] <= limit {
			quiet = append(quiet, v)
		}
	}
	return median(quiet)
}

// setUp deploys the federation, waits until every daemon answers and
// warms what the workload expects warm.
func setUp(ctx context.Context, cfg config, w *world, dir string) (*federation, *driver, error) {
	f, err := launch(cfg.bin, dir, w)
	if err != nil {
		return nil, nil, err
	}
	d := newDriver(w, f)
	rctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	err = d.ready(rctx)
	if err == nil {
		err = d.warm(rctx)
	}
	if err != nil {
		d.close()
		f.stop()
		return nil, nil, err
	}
	return f, d, nil
}

// secs returns share of a round's measured time: the traced run has one
// round, an untraced run roundsPerRun.
func secs(cfg config, share float64) time.Duration {
	t := float64(cfg.seconds) * float64(time.Second)
	if !cfg.trace {
		t /= roundsPerRun
	}
	return time.Duration(share * t)
}

// roundOut is what one untraced round measured.
type roundOut struct {
	resolveP50, resolveCap []float64       // per slice: open loop p50 (us), closed loop resolves/s
	openSteal, closedSteal []uint64        // per slice: host steal ticks during each loop
	updateLat              []time.Duration // open loop, from due time
	resolveP99, updateP99  []float64       // open loop, per window, us
	updateDone             int             // closed loop completions
	closedSecs             time.Duration   // closed loop length
	cpuPerOp               []float64       // per slice: daemons' CPU (us) over the open loop per completed request
	rssMB, setupS          float64
	setupSteal             uint64 // host steal ticks during set-up
	attempted, failed      int
	rec                    map[string]any
}

// runE2E measures one round's end-to-end metrics with tracing off. The
// round alternates slicesPerRound open-loop slices at the workload's rate
// with as many closed-loop slices at its window; each slice gives one
// p50 or one capacity.
func runE2E(ctx context.Context, cfg config, d *driver, round uint64) (*roundOut, error) {
	pl := plans[cfg.workload]
	openD, closedD := secs(cfg, 0.6/slicesPerRound), secs(cfg, 0.4/slicesPerRound)
	out := &roundOut{}
	tally := func(p *phase) {
		out.attempted += p.attempted
		out.failed += p.failed
		if p.firstErr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: first failure: %v\n", p.firstErr)
		}
	}

	var late []time.Duration
	var phases []map[string]any
	samples := map[string]int{}
	for k := range uint64(slicesPerRound) {
		st0, err := hostStealTicks()
		if err != nil {
			return nil, err
		}
		before, err := d.f.snapshot(ctx, false)
		if err != nil {
			return nil, err
		}
		s := d.w.stream(round*16 + 2*k + 1)
		s.updateShare = pl.updateShare
		open := openLoop(ctx, d, s, pl.rate, openD)
		tally(open)
		after, err := d.f.snapshot(ctx, false)
		if err != nil {
			return nil, err
		}
		// CPU per request at the fixed offered rate of the open loop.
		var cpu uint64
		for layer, t := range after.cpu {
			cpu += t - before.cpu[layer]
		}
		out.cpuPerOp = append(out.cpuPerOp, float64(cpu)*1e6/userHZ/float64(max(open.ok(), 1)))
		st1, err := hostStealTicks()
		if err != nil {
			return nil, err
		}
		s = d.w.stream(round*16 + 2*k + 2)
		s.updateShare = pl.updateShare
		closed := closedLoop(ctx, d, s, pl.window, closedD)
		tally(closed)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		st2, err := hostStealTicks()
		if err != nil {
			return nil, err
		}
		out.openSteal = append(out.openSteal, st1-st0)
		out.closedSteal = append(out.closedSteal, st2-st1)

		out.resolveP50 = append(out.resolveP50, us(percentile(lats(open.resolves), 0.5)))
		out.resolveCap = append(out.resolveCap, float64(len(closed.resolves))/closed.elapsed.Seconds())
		out.updateLat = append(out.updateLat, lats(open.updates)...)
		out.resolveP99 = append(out.resolveP99, windowQuantiles(open.resolves, openD, 0.99)...)
		out.updateP99 = append(out.updateP99, windowQuantiles(open.updates, openD, 0.99)...)
		out.updateDone += len(closed.updates)
		out.closedSecs += closed.elapsed
		late = append(late, open.late...)
		phases = append(phases,
			phaseRecord(fmt.Sprintf("open%d", k+1), "open", pl.rate, 0, open),
			phaseRecord(fmt.Sprintf("closed%d", k+1), "closed", 0, pl.window, closed))
		samples["resolve_open"] += len(open.resolves)
		samples["update_open"] += len(open.updates)
		samples["resolve_closed"] += len(closed.resolves)
		samples["update_closed"] += len(closed.updates)
	}

	a, f, first := d.verifyLive(ctx)
	out.attempted += a
	out.failed += f
	if first != nil {
		fmt.Fprintf(os.Stderr, "perfbench: registration check: %v\n", first)
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	var rss uint64
	for _, dm := range d.f.daemons {
		kb, err := dm.peakRSSKB()
		if err != nil {
			return nil, err
		}
		rss += kb
	}
	out.rssMB = float64(rss) / 1024

	out.rec = map[string]any{
		"resolve_p50_us":         quietMedian(out.resolveP50, out.openSteal),
		"resolve_capacity_ops_s": quietMedian(out.resolveCap, out.closedSteal),
		"cpu_us_per_op":          quietMedian(out.cpuPerOp, out.openSteal),
		"loadgen.late_p99_us":    us(percentile(late, 0.99)),
		"phases":                 phases,
		"samples":                samples,
		// Per slice, for telling a slow host from a slow program.
		"slice_resolve_p50_us":         out.resolveP50,
		"slice_resolve_capacity_ops_s": out.resolveCap,
		"slice_open_steal_ticks":       out.openSteal,
		"slice_closed_steal_ticks":     out.closedSteal,
	}
	return out, nil
}

func phaseRecord(name, loop string, rate float64, window int, p *phase) map[string]any {
	r := map[string]any{"name": name, "loop": loop, "seconds": p.elapsed.Seconds(),
		"attempted": p.attempted, "failed": p.failed}
	if rate > 0 {
		r["offered_per_s"] = rate
	}
	if window > 0 {
		r["window"] = window
	}
	return r
}

// runRecord describes the host, toolchain and source the run measured.
func runRecord(cfg config) map[string]any {
	pl := plans[cfg.workload]
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"workload":         cfg.workload,
		"seed":             cfg.seed,
		"seconds":          cfg.seconds,
		"trace":            cfg.trace,
		"nproc":            runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"conns_per_daemon": runtime.NumCPU(),
		"go_version":       runtime.Version(),
		"kernel":           strings.TrimSpace(string(kernel)),
		"commit":           commit,
		"source_sha256":    sourceDigest("."),
		"offered_per_s":    pl.rate,
		"update_share":     pl.updateShare,
		"window":           pl.window,
		"transport":        "loopback",
	}
}

// sourceDigest hashes the program's sources under root (go.mod, cmd/,
// internal/), so a run names the code it measured even outside git.
func sourceDigest(root string) string {
	var files []string
	for _, top := range []string{"cmd", "internal"} {
		_ = filepath.WalkDir(filepath.Join(root, top), func(p string, e os.DirEntry, err error) error {
			if err == nil && !e.IsDir() && strings.HasSuffix(p, ".go") {
				files = append(files, p)
			}
			return nil
		})
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range append([]string{filepath.Join(root, "go.mod")}, files...) {
		f, err := os.Open(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00", p)
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// selfMetrics reads this process's own client-side series (the same
// registry a daemon serves on /metrics).
func selfMetrics() (series, error) {
	var b bytes.Buffer
	metrics.Default().Snapshot().WriteText(&b)
	return parseMetrics(&b)
}
