package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hns/internal/bind"
	"hns/internal/names"
	"hns/internal/nsm"
	"hns/internal/qclass"
)

// runTraced produces the per-layer metrics: an untraced open-loop phase
// with the daemons' counters and CPU times read around it, the same phase
// traced (spans kept in memory, written to spans.jsonl in the work
// directory), and a ladder that drives each layer boundary by itself with
// the workload's own inputs.
func runTraced(ctx context.Context, cfg config, d *driver, dir string, rec map[string]any) (*result, error) {
	pl := plans[cfg.workload]
	res := &result{Metrics: make(map[string]metric)}
	tally := func(p *phase) {
		res.Attempted += p.attempted
		res.Failed += p.failed
		if p.firstErr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: first failure: %v\n", p.firstErr)
		}
	}
	start, err := d.f.snapshot(ctx, true)
	if err != nil {
		return nil, err
	}

	s := d.w.stream(1)
	s.updateShare = pl.updateShare
	untraced := openLoop(ctx, d, s, pl.rate, secs(cfg, 0.35))
	tally(untraced)
	after, err := d.f.snapshot(ctx, true)
	if err != nil {
		return nil, err
	}

	d.tr = newTracer()
	s = d.w.stream(2)
	s.updateShare = pl.updateShare
	traced := openLoop(ctx, d, s, pl.rate, secs(cfg, 0.35))
	tr := d.tr
	d.tr = nil
	tally(traced)

	rungs, lp := d.ladder(ctx, d.w.stream(4))
	tally(lp)
	end, err := d.f.snapshot(ctx, true)
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	m := res.Metrics
	for name, v := range rungs {
		m[name] = metric{v, "us"}
	}
	m["gateway.self_us"] = metric{rungs["gateway.find_us"] - rungs["core.find_us"], "us"}

	// Counters and CPU over the untraced phase, per completed request.
	ops := float64(max(untraced.ok(), 1))
	delta := func(layer, name, suffix string, labels ...string) (float64, bool) {
		b, ok1 := start.metrics[layer].sum(name, suffix, labels...)
		a, ok2 := after.metrics[layer].sum(name, suffix, labels...)
		return a - b, ok1 && ok2
	}
	ratio := func(key string, num, den float64, ok bool, unit string) {
		if ok && den > 0 {
			m[key] = metric{num / den, unit}
		}
	}
	calls, ok1 := delta(layerNSM, "hrpc_server_calls_total", "", `proc="ResolveHost"`)
	misses, ok2 := delta(layerNSM, "bind_client_lookups_total", "", `iface="std"`)
	ratio("nsm.cache_hit_ratio", calls-misses, calls, ok1 && ok2, "ratio")
	q, ok := delta(layerApp, "bind_queries_total", "")
	ratio("bind.app.queries_per_op", q, ops, ok, "count")
	q, ok = delta(layerMeta, "bind_queries_total", "")
	ratio("bind.meta.queries_per_op", q, ops, ok, "count")
	hits, ok1 := delta(layerCore, "cache_hits_total", "", `cache="meta"`)
	miss, ok2 := delta(layerCore, "cache_misses_total", "", `cache="meta"`)
	ratio("core.meta_cache_hit_ratio", hits, hits+miss, ok1 && ok2, "ratio")
	co, ok := delta(layerCore, "cache_coalesced_total", "", `cache="meta"`)
	ratio("core.coalesced_per_op", co, ops, ok, "count")
	var frames, bytes float64
	var haveWire bool
	for _, layer := range []string{layerGateway, layerCore, layerNSM, layerMeta, layerApp, "loadgen"} {
		fr, ok1 := delta(layer, "transport_frames_total", "")
		by, ok2 := delta(layer, "transport_bytes_total", "")
		if ok1 && ok2 {
			frames, bytes, haveWire = frames+fr, bytes+by, true
		}
	}
	ratio("transport.frames_per_op", frames, ops, haveWire, "count")
	ratio("transport.bytes_per_op", bytes, ops, haveWire, "B")
	for layer := range d.f.byLayer {
		m[layer+".cpu_us_per_op"] = metric{float64(after.cpu[layer]-start.cpu[layer]) * 1e6 / userHZ / ops, "us"}
	}
	m["loadgen.cpu_us_per_op"] = metric{float64(after.self-start.self) * 1e6 / userHZ / ops, "us"}
	m["loadgen.late_p99_us"] = metric{us(percentile(untraced.late, 0.99)), "us"}

	// The journal, over every update of the run.
	fs, ok1 := end.metrics[layerMeta].sum("wal_fsync_total", "")
	fs0, _ := start.metrics[layerMeta].sum("wal_fsync_total", "")
	fms, ok2 := end.metrics[layerMeta].sum("wal_fsync_seconds", "_sum_ms")
	fms0, _ := start.metrics[layerMeta].sum("wal_fsync_seconds", "_sum_ms")
	up, ok3 := end.metrics[layerMeta].sum("bind_updates_total", "")
	up0, _ := start.metrics[layerMeta].sum("bind_updates_total", "")
	ratio("store.fsyncs_per_update", fs-fs0, up-up0, ok1 && ok3, "count")
	ratio("store.fsync_us_per_update", (fms-fms0)*1000, up-up0, ok2 && ok3, "us")

	// The trace: coverage of each op by its layer spans, and overhead.
	tr.mu.Lock()
	total, self := selfTotal(tr.spans, "op")
	nspans := len(tr.spans)
	tr.mu.Unlock()
	if total > 0 {
		m["trace.child_coverage_ratio"] = metric{1 - float64(self)/float64(total), "ratio"}
	}
	p50u := percentile(lats(untraced.resolves), 0.5)
	if p50u > 0 {
		m["trace.overhead_ratio"] = metric{float64(percentile(lats(traced.resolves), 0.5)) / float64(p50u), "ratio"}
	}
	spansPath := filepath.Join(filepath.Dir(dir), fmt.Sprintf("spans-%s-s%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.write(spansPath); err != nil {
		return nil, err
	}
	rec["spans_file"] = spansPath
	rec["spans"] = nspans
	rec["ladder_calls_per_rung"] = ladderCalls
	rec["phases"] = []map[string]any{
		phaseRecord("untraced-open", "open", pl.rate, 0, untraced),
		phaseRecord("traced-open", "open", pl.rate, 0, traced),
		phaseRecord("ladder", "closed", 0, 1, lp),
	}
	rec["loadgen.late_p99_us"] = m["loadgen.late_p99_us"].Value
	res.Correct = res.Failed == 0
	return res, nil
}

// errNoNames ends a ladder rung when cold-resolve has used every fresh name.
var errNoNames = errors.New("fresh names exhausted")

// ladder times each layer boundary by itself, one call at a time on one
// lane, over inputs drawn from the workload's own distribution (fresh
// names for cold-resolve, recent registrations for register-churn, whose
// interleaved updates are performed untimed so the caches see the
// workload's mix). It returns each rung's median in microseconds.
func (d *driver) ladder(ctx context.Context, s *stream) (map[string]float64, *phase) {
	l := d.lanes[0]
	p := newPhase()
	metaName := func(c string) string { return c + ".ctx." + metaZone }
	rungs := []struct {
		name string
		call func(ctx context.Context, n names.Name) error
	}{
		{"gateway.find_us", func(ctx context.Context, n names.Name) error {
			b, err := l.gw.FindNSM(ctx, n, qclass.HostAddress)
			if err == nil && b.Addr != d.nsmB.Addr {
				err = fmt.Errorf("FindNSM %s via hnsgw bound to %s", n, b.Addr)
			}
			return err
		}},
		{"core.find_us", func(ctx context.Context, n names.Name) error {
			b, err := l.hnsd.FindNSM(ctx, n, qclass.HostAddress)
			if err == nil && b.Addr != d.nsmB.Addr {
				err = fmt.Errorf("FindNSM %s via hnsd bound to %s", n, b.Addr)
			}
			return err
		}},
		{"nsm.resolve_us", func(ctx context.Context, n names.Name) error {
			addr, err := nsm.CallResolveHost(ctx, l.rpc, d.nsmB, n)
			if err != nil {
				return err
			}
			return d.w.check(n.Individual, addr)
		}},
		{"bind.meta.lookup_us", func(ctx context.Context, n names.Name) error {
			_, err := l.meta.Lookup(ctx, metaName(n.Context), bind.TypeHNSMeta)
			return err
		}},
		{"bind.meta.lookup_fresh_us", func(ctx context.Context, n names.Name) error {
			_, err := d.fresh.Lookup(ctx, metaName(n.Context), bind.TypeHNSMeta)
			return err
		}},
		{"bind.app.lookup_us", func(ctx context.Context, n names.Name) error {
			rrs, err := l.app.Lookup(ctx, n.Individual, bind.TypeA)
			if err != nil {
				return err
			}
			if len(rrs) == 0 {
				return fmt.Errorf("lookup %s: no records", n.Individual)
			}
			return d.w.check(n.Individual, string(rrs[0].Data))
		}},
		{"hrpc.null_us", func(ctx context.Context, _ names.Name) error {
			_, err := l.meta.Serial(ctx, metaZone)
			return err
		}},
	}
	out := make(map[string]float64)
	// next draws the rung's next name, performing interleaved updates
	// first; release ends the read's hold on a register-churn context.
	next := func(ctx context.Context) (n names.Name, release func(), err error) {
		for {
			o, ok := s.next()
			if !ok {
				return n, nil, errNoNames
			}
			if o.kind == opUpdate {
				err := d.exec(ctx, l, o)
				p.add(opUpdate, time.Now(), err)
				if err != nil {
					return n, nil, err
				}
				continue
			}
			if o.ctx != "" {
				return names.Name{Context: o.ctx, Individual: o.host}, func() {}, nil
			}
			lc := d.churn.pick(o.recent)
			return names.Name{Context: lc.name, Individual: o.host}, func() { lc.readers.Add(-1) }, nil
		}
	}
	timed := func(name string, kind opKind, call func(ctx context.Context, n names.Name) error, needName bool) {
		var lat []time.Duration
		for range ladderCalls {
			if ctx.Err() != nil {
				break
			}
			var n names.Name
			release := func() {}
			if needName {
				var err error
				if n, release, err = next(ctx); err == errNoNames {
					break
				} else if err != nil {
					continue
				}
			}
			cctx, cancel := context.WithTimeout(ctx, opTimeout)
			t := time.Now()
			err := call(cctx, n)
			el := time.Since(t)
			cancel()
			release()
			p.add(kind, t, err)
			if err == nil {
				lat = append(lat, el)
			}
		}
		out[name] = us(percentile(lat, 0.5))
	}
	start := time.Now()
	for _, r := range rungs {
		timed(r.name, opResolve, r.call, r.name != "hrpc.null_us")
	}
	set := d.probe
	if d.w.workload == "register-churn" {
		set = d.churn
	}
	timed("bind.meta.update_us", opUpdate, func(ctx context.Context, _ names.Name) error {
		return set.step(ctx, l.meta, nil, 0, 0)
	}, false)
	p.elapsed = time.Since(start)
	return out, p
}
