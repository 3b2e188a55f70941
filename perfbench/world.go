package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"sync/atomic"

	"hns/internal/bind"
	"hns/internal/core"
	"hns/internal/hrpc"
	"hns/internal/qclass"
)

// The world is everything the daemons serve: the meta zone (the name
// service, its HostAddress NSM and the contexts that map onto it) and the
// application zone (the hosts those contexts name). It is generated from
// the seed alone, so the same seed gives the same zone files, the same
// request streams and the same expected answers.

const (
	metaZone    = "hns"
	appZone     = "cs.washington.edu"
	nameService = "bind-cs"
	nsmName     = "hostaddr-bind-1"
	nsmHost     = "nsm." + appZone
	nsmHostCtx  = "hostaddr-bind"
)

// Sizes of the generated namespaces.
const (
	// warmHosts and warmContexts: "a few hundred hosts in a handful of
	// contexts", small enough that every cache holds all of them.
	warmHosts    = 400
	warmContexts = 8
	zipfS        = 1.1
	// coldNames bounds the fresh (context, host) pairs one cold-resolve
	// run can consume; it is larger than any run at the recorded rates.
	coldNames = 40000
	// churnLive is how many registered contexts register-churn keeps
	// alive; churnRecent is how many of the newest ones its reads target.
	churnLive   = 64
	churnRecent = 8
)

type opKind int

const (
	opResolve opKind = iota // FindNSM through hnsgw, then ResolveHost
	opUpdate                // one acked meta update (register or remove)
)

// op is one generated request. For register-churn reads ctx is empty and
// recent picks the context at execution time: the recent-th newest
// acknowledged registration.
type op struct {
	kind   opKind
	ctx    string
	host   string
	recent int
}

// world holds one seed's generated names and expected answers.
type world struct {
	workload string
	seed     uint64
	hosts    []string // warm hosts, hottest first
	contexts []string // contexts registered in the meta zone file
	addrs    map[string]string

	coldCtx   []string // cold-resolve's fresh contexts, in use order
	coldHosts []string // cold-resolve's fresh hosts, in use order
	coldNext  atomic.Int64
}

// newWorld generates the world for one workload and seed.
func newWorld(workload string, seed uint64) *world {
	r := rand.New(rand.NewPCG(seed, 0x776f726c64)) // "world"
	w := &world{workload: workload, seed: seed, addrs: make(map[string]string)}
	tag := fmt.Sprintf("%04x", r.Uint32()&0xffff)
	addHost := func(name string) string {
		fq := name + "." + appZone
		v := r.Uint32()
		w.addrs[fq] = fmt.Sprintf("10.%d.%d.%d", v>>16&0xff, v>>8&0xff, v&0xff)
		return fq
	}
	for i := range warmHosts {
		w.hosts = append(w.hosts, addHost(fmt.Sprintf("h%d-%s", i, tag)))
	}
	r.Shuffle(len(w.hosts), func(i, j int) { w.hosts[i], w.hosts[j] = w.hosts[j], w.hosts[i] })
	switch workload {
	case "warm-resolve":
		for i := range warmContexts {
			w.contexts = append(w.contexts, fmt.Sprintf("warm%d-%s", i, tag))
		}
	case "cold-resolve":
		for i := range coldNames {
			w.coldCtx = append(w.coldCtx, fmt.Sprintf("cold%d-%s", i, tag))
			w.coldHosts = append(w.coldHosts, addHost(fmt.Sprintf("c%d-%s", i, tag)))
		}
		r.Shuffle(coldNames, func(i, j int) { w.coldCtx[i], w.coldCtx[j] = w.coldCtx[j], w.coldCtx[i] })
		r.Shuffle(coldNames, func(i, j int) { w.coldHosts[i], w.coldHosts[j] = w.coldHosts[j], w.coldHosts[i] })
		// One context outside the fresh set warms the shared records.
		w.contexts = append(w.contexts, "coldwarm-"+tag)
	case "register-churn":
		for i := range churnLive {
			w.contexts = append(w.contexts, churnName(i))
		}
	}
	return w
}

// churnName names the n-th context register-churn registers. The first
// churnLive come registered in the meta zone file.
func churnName(n int) string { return fmt.Sprintf("live%d", n) }

// probeName names the n-th context the ladder registers outside
// register-churn.
func probeName(n int) string { return fmt.Sprintf("probe%d", n) }

// metaZoneFile renders the meta zone: the name service, its HostAddress
// NSM at nsmPort, the NSM host's context and every pre-registered context.
func (w *world) metaZoneFile(nsmPort int) (string, error) {
	var rrs []bind.RR
	ns, err := core.NameServiceRecord(metaZone, nameService, "bind")
	if err != nil {
		return "", err
	}
	rrs = append(rrs, ns)
	nsms, err := core.NSMRecords(metaZone, core.NSMInfo{
		Name:        nsmName,
		NameService: nameService,
		QueryClass:  qclass.HostAddress,
		Host:        nsmHost,
		HostContext: nsmHostCtx,
		Port:        fmt.Sprint(nsmPort),
		Suite:       hrpc.SuiteSunRPCNet,
	})
	if err != nil {
		return "", err
	}
	rrs = append(rrs, nsms...)
	for _, c := range append([]string{nsmHostCtx}, append(w.contexts, w.coldCtx...)...) {
		rr, err := core.ContextRecord(metaZone, c, nameService)
		if err != nil {
			return "", err
		}
		rrs = append(rrs, rr)
	}
	var b strings.Builder
	for _, rr := range rrs {
		fmt.Fprintf(&b, "%s %d HNSMETA %s\n", rr.Name, rr.TTL, rr.Data)
	}
	return b.String(), nil
}

// appZoneFile renders the application zone: one A record per host.
func (w *world) appZoneFile() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s 600 A 127.0.0.1\n", nsmHost)
	for _, h := range append(w.hosts, w.coldHosts...) {
		fmt.Fprintf(&b, "%s 600 A %s\n", h, w.addrs[h])
	}
	return b.String()
}

// check compares a resolve's answer with the address the world assigns.
func (w *world) check(host, got string) error {
	want, ok := w.addrs[host]
	if !ok {
		return fmt.Errorf("resolved %s, which the world does not hold", host)
	}
	if got != want {
		return fmt.Errorf("wrong address for %s: got %q, want %q", host, got, want)
	}
	return nil
}

// stream draws one phase's requests. Each phase has its own stream, keyed
// by a salt, so the inputs of one phase do not depend on how many
// requests an earlier phase managed to send. It is safe for concurrent
// use.
type stream struct {
	mu   sync.Mutex
	w    *world
	r    *rand.Rand
	zipf *rand.Zipf
	// updateShare is the fraction of register-churn requests that are
	// updates.
	updateShare float64
}

func (w *world) stream(salt uint64) *stream {
	r := rand.New(rand.NewPCG(w.seed, salt))
	return &stream{
		w:    w,
		r:    r,
		zipf: rand.NewZipf(r, zipfS, 1, uint64(len(w.hosts)-1)),
	}
}

// next draws a request; ok is false once cold-resolve has used every
// fresh name.
func (s *stream) next() (o op, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.w.workload {
	case "cold-resolve":
		i := s.w.coldNext.Add(1) - 1
		if i >= int64(len(s.w.coldCtx)) {
			return op{}, false
		}
		return op{kind: opResolve, ctx: s.w.coldCtx[i], host: s.w.coldHosts[i]}, true
	case "register-churn":
		if s.r.Float64() < s.updateShare {
			return op{kind: opUpdate}, true
		}
		return op{kind: opResolve, host: s.w.hosts[s.zipf.Uint64()], recent: s.r.IntN(churnRecent)}, true
	default:
		return op{
			kind: opResolve,
			ctx:  s.w.contexts[s.r.IntN(len(s.w.contexts))],
			host: s.w.hosts[s.zipf.Uint64()],
		}, true
	}
}

// gap draws the next Poisson inter-arrival time, in seconds, at rate/s.
func (s *stream) gap(rate float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.r.ExpFloat64() / rate
}
