package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hns/internal/bind"
	"hns/internal/core"
	"hns/internal/hrpc"
	"hns/internal/names"
	"hns/internal/nsm"
	"hns/internal/qclass"
	"hns/internal/simtime"
	"hns/internal/transport"
)

// federation is one deployment of the system under test: a meta bindd
// (journaled under the default fsync policy), an application bindd, nsmd,
// hnsd and hnsgw, each its own process on loopback ports. Each gets only
// deployment flags, so the benchmark measures the shipped defaults.
type federation struct {
	dir     string
	daemons []*daemon // in start order
	byLayer map[string]*daemon

	metaAddr, appStd, nsmAddr, hnsdAddr, gwAddr string
}

// Layer names of the daemons, as used in the per-layer metric names.
const (
	layerGateway = "gateway"   // hnsgw
	layerCore    = "core"      // hnsd
	layerNSM     = "nsm"       // nsmd
	layerMeta    = "bind.meta" // the meta bindd
	layerApp     = "bind.app"  // the application bindd
)

// launch writes the world's zone files into dir and starts the daemons.
// On error every started daemon has been stopped.
func launch(bin, dir string, w *world) (_ *federation, err error) {
	var p ports
	f := &federation{dir: dir, byLayer: make(map[string]*daemon)}
	defer func() {
		if err != nil {
			f.stop()
		}
	}()
	var addrs [11]string
	for i := range addrs {
		if addrs[i], err = p.addr(); err != nil {
			return nil, err
		}
	}
	f.metaAddr, f.appStd, f.nsmAddr, f.hnsdAddr, f.gwAddr = addrs[0], addrs[1], addrs[2], addrs[3], addrs[4]
	appHRPC := addrs[5]
	metricsAddr := addrs[6:]

	var nsmPort int
	if _, err := fmt.Sscanf(f.nsmAddr, "127.0.0.1:%d", &nsmPort); err != nil {
		return nil, err
	}
	meta, err := w.metaZoneFile(nsmPort)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "meta.zone"), []byte(meta), 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "app.zone"), []byte(w.appZoneFile()), 0o644); err != nil {
		return nil, err
	}

	start := func(layer, prog, metricsAddr string, args ...string) error {
		d, err := startDaemon(filepath.Join(bin, prog), dir, layer, metricsAddr, args...)
		if err != nil {
			return err
		}
		f.daemons = append(f.daemons, d)
		f.byLayer[layer] = d
		return nil
	}
	if err := start(layerMeta, "bindd", metricsAddr[0], "-host", "meta", "-zone", metaZone, "-update",
		"-records", "meta.zone", "-data-dir", "data", "-hrpc", f.metaAddr, "-std", ""); err != nil {
		return nil, err
	}
	if err := start(layerApp, "bindd", metricsAddr[1], "-host", "app", "-zone", appZone,
		"-records", "app.zone", "-hrpc", appHRPC, "-std", f.appStd); err != nil {
		return nil, err
	}
	if err := start(layerNSM, "nsmd", metricsAddr[2], "-type", "hostaddr-bind", "-name", nsmName,
		"-ns", nameService, "-bind-std", f.appStd, "-addr", f.nsmAddr); err != nil {
		return nil, err
	}
	if err := start(layerCore, "hnsd", metricsAddr[3], "-addr", f.hnsdAddr, "-meta", f.metaAddr,
		"-metazone", metaZone, "-link-bind", nameService+"="+f.appStd); err != nil {
		return nil, err
	}
	if err := start(layerGateway, "hnsgw", metricsAddr[4], "-addr", f.gwAddr, "-backend", f.hnsdAddr); err != nil {
		return nil, err
	}
	return f, nil
}

// stop kills every daemon and waits until each has been reaped.
func (f *federation) stop() {
	for i := len(f.daemons) - 1; i >= 0; i-- {
		f.daemons[i].stop()
	}
}

// checkAlive fails if any daemon has exited.
func (f *federation) checkAlive() error {
	for _, d := range f.daemons {
		if d.exited() {
			return fmt.Errorf("%s exited: %v (see %s)", d.name, d.err, filepath.Join(f.dir, d.name+".log"))
		}
	}
	return nil
}

// snap is a reading of every daemon's CPU time and, optionally, /metrics,
// plus the benchmark process's own.
type snap struct {
	cpu     map[string]uint64 // layer -> ticks
	self    uint64
	metrics map[string]series // layer -> scrape; "loadgen" is this process
}

func (f *federation) snapshot(ctx context.Context, withMetrics bool) (snap, error) {
	s := snap{cpu: make(map[string]uint64), metrics: make(map[string]series)}
	for layer, d := range f.byLayer {
		t, err := d.cpuTicks()
		if err != nil {
			return s, fmt.Errorf("%s cpu: %w", layer, err)
		}
		s.cpu[layer] = t
	}
	self, err := procCPUTicks(os.Getpid())
	if err != nil {
		return s, err
	}
	s.self = self
	if !withMetrics {
		return s, nil
	}
	for layer, d := range f.byLayer {
		m, err := scrape(ctx, d.metrics)
		if err != nil {
			return s, fmt.Errorf("%s metrics: %w", layer, err)
		}
		s.metrics[layer] = m
	}
	own, err := selfMetrics()
	if err != nil {
		return s, err
	}
	s.metrics["loadgen"] = own
	return s, nil
}

// lane is one set of client connections; the benchmark opens one lane per
// CPU, so no daemon sees more connections from it than there are CPUs.
type lane struct {
	rpc  *hrpc.Client
	gw   *core.RemoteHNS
	hnsd *core.RemoteHNS
	meta *bind.HRPCClient
	app  *bind.StdClient
}

// driver issues the benchmark's requests against one federation.
type driver struct {
	w      *world
	f      *federation
	net    *transport.Network
	lanes  []*lane
	fresh  *bind.HRPCClient // a fresh connection per call, like hnsd's meta client
	nsmB   hrpc.Binding     // the NSM binding FindNSM must return
	tr     *tracer          // nil when tracing is off
	churn  *liveSet         // register-churn's registered contexts
	probe  *liveSet         // contexts the ladder registers outside register-churn
	closer []func()
}

func newDriver(w *world, f *federation) *driver {
	d := &driver{w: w, f: f, net: transport.NewNetwork(simtime.Default())}
	for range runtime.NumCPU() {
		rpc := hrpc.NewClient(d.net)
		l := &lane{
			rpc:  rpc,
			gw:   core.NewRemoteHNS(rpc, hrpc.SuiteRawNet.Bind(f.gwAddr, f.gwAddr, core.HNSProgram, core.HNSVersion)),
			hnsd: core.NewRemoteHNS(rpc, hrpc.SuiteRawNet.Bind(f.hnsdAddr, f.hnsdAddr, core.HNSProgram, core.HNSVersion)),
			meta: bind.NewHRPCClient(rpc, hrpc.SuiteRawNet.Bind(f.metaAddr, f.metaAddr, bind.HRPCProgram, bind.HRPCVersion)),
			app:  bind.NewStdClient(d.net, "udp-net", f.appStd),
		}
		d.lanes = append(d.lanes, l)
		d.closer = append(d.closer, func() { rpc.Close(); l.app.Close() })
	}
	fresh := hrpc.NewClient(d.net)
	fresh.FreshConn = true
	d.fresh = bind.NewHRPCClient(fresh, hrpc.SuiteRawNet.Bind(f.metaAddr, f.metaAddr, bind.HRPCProgram, bind.HRPCVersion))
	d.closer = append(d.closer, func() { fresh.Close() })
	prog, _ := qclass.Program(qclass.HostAddress)
	d.nsmB = hrpc.SuiteSunRPCNet.Bind(nsmHost, f.nsmAddr, prog, qclass.NSMVersion)
	d.churn = &liveSet{target: churnLive, name: churnName}
	if w.workload == "register-churn" {
		for i := range churnLive {
			d.churn.live = append(d.churn.live, &liveCtx{name: churnName(i)})
		}
		d.churn.next = churnLive
	}
	d.probe = &liveSet{target: 8, name: probeName}
	return d
}

func (d *driver) close() {
	for _, c := range d.closer {
		c()
	}
}

const opTimeout = 5 * time.Second

// ready waits until every daemon answers, probing in dependency order
// with a throwaway client per attempt so that no failed attempt leaves
// breaker state in the lanes' clients.
func (d *driver) ready(ctx context.Context) error {
	probe := func(what string, call func(ctx context.Context, rpc *hrpc.Client) error) error {
		var last error
		for {
			if err := d.f.checkAlive(); err != nil {
				return err
			}
			rpc := hrpc.NewClient(d.net)
			cctx, cancel := context.WithTimeout(ctx, 500*time.Millisecond)
			last = call(cctx, rpc)
			cancel()
			rpc.Close()
			if last == nil {
				return nil
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("%s not ready: %w (last error: %v)", what, ctx.Err(), last)
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	warmName := names.Name{Context: nsmHostCtx, Individual: nsmHost}
	steps := []struct {
		what string
		call func(ctx context.Context, rpc *hrpc.Client) error
	}{
		{"meta bindd", func(ctx context.Context, rpc *hrpc.Client) error {
			_, err := bind.NewHRPCClient(rpc, d.lanes[0].meta.Binding()).Serial(ctx, metaZone)
			return err
		}},
		{"application bindd", func(ctx context.Context, rpc *hrpc.Client) error {
			std := bind.NewStdClient(d.net, "udp-net", d.f.appStd)
			defer std.Close()
			_, err := std.Lookup(ctx, nsmHost, bind.TypeA)
			return err
		}},
		{"nsmd", func(ctx context.Context, rpc *hrpc.Client) error {
			_, err := nsm.CallResolveHost(ctx, rpc, d.nsmB, warmName)
			return err
		}},
		{"hnsd", func(ctx context.Context, rpc *hrpc.Client) error {
			_, err := core.NewRemoteHNS(rpc, d.lanes[0].hnsd.Binding()).FindNSM(ctx, warmName, qclass.HostAddress)
			return err
		}},
		{"hnsgw", func(ctx context.Context, rpc *hrpc.Client) error {
			_, err := core.NewRemoteHNS(rpc, d.lanes[0].gw.Binding()).FindNSM(ctx, warmName, qclass.HostAddress)
			return err
		}},
	}
	for _, s := range steps {
		if err := probe(s.what, s.call); err != nil {
			return err
		}
	}
	return nil
}

// warm fills the caches the workload expects to be warm and opens every
// lane's connections, so that neither is paid inside a timed phase.
func (d *driver) warm(ctx context.Context) error {
	ctxs := d.w.contexts
	if d.w.workload == "register-churn" {
		ctxs = ctxs[len(ctxs)-churnRecent:]
	}
	for i, l := range d.lanes {
		if _, err := l.meta.Serial(ctx, metaZone); err != nil {
			return fmt.Errorf("warm-up Serial: %w", err)
		}
		if _, err := l.app.Lookup(ctx, nsmHost, bind.TypeA); err != nil {
			return fmt.Errorf("warm-up lookup: %w", err)
		}
		n := names.Name{Context: ctxs[i%len(ctxs)], Individual: d.w.hosts[0]}
		if _, err := l.hnsd.FindNSM(ctx, n, qclass.HostAddress); err != nil {
			return fmt.Errorf("warm-up FindNSM: %w", err)
		}
		if err := d.resolve(ctx, l, n, 0, 0); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	// Every warm host through nsmd, every pre-registered read context
	// through hnsd. Cold-resolve's fresh names are never touched.
	for i, h := range d.w.hosts {
		n := names.Name{Context: ctxs[i%len(ctxs)], Individual: h}
		if err := d.resolve(ctx, d.lanes[i%len(d.lanes)], n, 0, 0); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// resolve is one end-to-end resolve: FindNSM through hnsgw, then
// ResolveHost at the NSM it returns, checked against the world.
func (d *driver) resolve(ctx context.Context, l *lane, n names.Name, trace, parent uint64) error {
	t0 := time.Now()
	b, err := l.gw.FindNSM(ctx, n, qclass.HostAddress)
	t1 := time.Now()
	d.tr.record(trace, d.tr.id(), parent, "gateway.find", t0, t1)
	if err != nil {
		return fmt.Errorf("FindNSM %s: %w", n, err)
	}
	if b.Addr != d.nsmB.Addr {
		return fmt.Errorf("FindNSM %s: bound to %s, want the NSM at %s", n, b.Addr, d.nsmB.Addr)
	}
	addr, err := nsm.CallResolveHost(ctx, l.rpc, b, n)
	d.tr.record(trace, d.tr.id(), parent, "nsm.resolve", t1, time.Now())
	if err != nil {
		return fmt.Errorf("ResolveHost %s: %w", n, err)
	}
	return d.w.check(n.Individual, addr)
}

// exec performs one generated request on lane l; with tracing on it
// records an "op" span parenting the layer spans.
func (d *driver) exec(ctx context.Context, l *lane, o op) error {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	trace, id := d.tr.id(), d.tr.id()
	start := time.Now()
	defer func() { d.tr.record(trace, id, 0, "op", start, time.Now()) }()
	if o.kind == opUpdate {
		return d.churn.step(ctx, l.meta, d.tr, trace, id)
	}
	c := o.ctx
	if c == "" {
		lc := d.churn.pick(o.recent)
		defer lc.readers.Add(-1)
		c = lc.name
	}
	return d.resolve(ctx, l, names.Name{Context: c, Individual: o.host}, trace, id)
}

// verifyLive resolves every currently registered context of the churn
// and probe sets: each acknowledged registration must resolve.
func (d *driver) verifyLive(ctx context.Context) (attempted, failed int, first error) {
	for _, set := range []*liveSet{d.churn, d.probe} {
		set.mu.Lock()
		live := make([]string, 0, len(set.live))
		for _, lc := range set.live {
			live = append(live, lc.name)
		}
		set.mu.Unlock()
		for i, c := range live {
			attempted++
			cctx, cancel := context.WithTimeout(ctx, opTimeout)
			err := d.resolve(cctx, d.lanes[0], names.Name{Context: c, Individual: d.w.hosts[i%len(d.w.hosts)]}, 0, 0)
			cancel()
			if err != nil {
				failed++
				if first == nil {
					first = err
				}
			}
		}
	}
	return attempted, failed, first
}

// liveSet tracks contexts registered by acked updates. Each update step
// registers the next context, or removes the oldest one no read is using
// once more than target are live, so reads only ever target contexts
// whose registration was acknowledged and which are still registered.
type liveSet struct {
	mu      sync.Mutex
	live    []*liveCtx // oldest first
	pending int        // registrations in flight
	next    int
	target  int
	name    func(int) string
}

type liveCtx struct {
	name    string
	readers atomic.Int32
}

// pick returns the recent-th newest live context, marked as being read;
// the caller decrements readers when done.
func (s *liveSet) pick(recent int) *liveCtx {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := max(len(s.live)-1-recent, 0)
	lc := s.live[i]
	lc.readers.Add(1)
	return lc
}

// step performs one acked update: a registration or a removal.
func (s *liveSet) step(ctx context.Context, meta *bind.HRPCClient, tr *tracer, trace, parent uint64) error {
	s.mu.Lock()
	var victim *liveCtx
	if len(s.live)+s.pending > s.target {
		for i, lc := range s.live {
			if lc.readers.Load() == 0 {
				victim = lc
				s.live = append(s.live[:i], s.live[i+1:]...)
				break
			}
		}
	}
	var name string
	if victim == nil {
		name = s.name(s.next)
		s.next++
		s.pending++
	}
	s.mu.Unlock()

	t0 := time.Now()
	if victim != nil {
		_, err := meta.Update(ctx, metaZone, bind.UpdateRemove,
			bind.RR{Name: victim.name + ".ctx." + metaZone, Type: bind.TypeHNSMeta})
		tr.record(trace, tr.id(), parent, "bind.meta.update", t0, time.Now())
		if err != nil {
			return fmt.Errorf("removing context %s: %w", victim.name, err)
		}
		return nil
	}
	rr, err := core.ContextRecord(metaZone, name, nameService)
	if err == nil {
		_, err = meta.Update(ctx, metaZone, bind.UpdateAdd, rr)
	}
	tr.record(trace, tr.id(), parent, "bind.meta.update", t0, time.Now())
	s.mu.Lock()
	s.pending--
	if err == nil {
		s.live = append(s.live, &liveCtx{name: name})
	}
	s.mu.Unlock()
	if err != nil {
		return fmt.Errorf("registering context %s: %w", name, err)
	}
	return nil
}
