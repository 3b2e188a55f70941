package hrpc

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hns/internal/admission"
	"hns/internal/bufpool"
	"hns/internal/cache"
	"hns/internal/marshal"
	"hns/internal/metrics"
	"hns/internal/simtime"
	"hns/internal/transport"
)

// ProcHandler implements one remote procedure. Costs charged to ctx flow
// back to the caller through the transport cost envelope.
type ProcHandler func(ctx context.Context, args marshal.Value) (marshal.Value, error)

// Server dispatches HRPC calls for one (program, version). The same Server
// value can be served over several protocol suites at once — the HRPC
// emulation property: one implementation, many wire personalities.
type Server struct {
	name    string
	program uint32
	version uint32

	// Metrics receives the server's hrpc_server_* series. Nil means the
	// process-wide metrics.Default(); metrics.Discard disables them.
	// Set before serving.
	Metrics *metrics.Registry

	mu    sync.RWMutex
	procs map[uint32]serverProc

	// replies, when non-nil, is the marshalled-reply cache (Table 3.2
	// applied server-side): repeat identical requests for Cacheable
	// procedures are answered from stored encoded results, skipping
	// demarshal → handler → marshal. Installed via EnableReplyCache.
	replies atomic.Pointer[replyCache]

	// admit, when non-nil, is the server's front door: every decoded
	// call asks it before any work happens, keyed by the transport's
	// peer identity. Installed via EnableAdmission.
	admit *admission.Controller

	// AdmitPriority classifies a procedure for priority shedding; nil
	// means everything is admission.High. Set before serving.
	AdmitPriority func(proc uint32) admission.Priority
}

// EnableAdmission installs an admission controller: calls are admitted
// or shed (with a typed Overloaded reply) before demarshalling. Call
// before serving.
func (s *Server) EnableAdmission(ctl *admission.Controller) { s.admit = ctl }

// replyCache memoizes marshalled results keyed by (data rep, procedure,
// raw argument bytes).
type replyCache struct {
	ttl   time.Duration
	cache *cache.TTL[cachedReply]

	hits, misses, invalidates *metrics.Counter
}

// cachedReply is one memoized result: the marshalled return value plus the
// simulated cost the original call charged between demarshal and marshal.
// A hit replays that cost to the caller's meter, so enabling the cache
// never changes simulated time — handlers are deterministic in the cost
// model — while skipping the real CPU and allocations of the work.
type cachedReply struct {
	results []byte
	cost    time.Duration
}

// EnableReplyCache equips the server with a TTL-bounded marshalled-reply
// cache. Only procedures registered with Cacheable=true participate. A nil clock uses real time.
// Call before serving.
func (s *Server) EnableReplyCache(clock simtime.Clock, ttl time.Duration) {
	if ttl <= 0 {
		return
	}
	reg := s.registry()
	s.replies.Store(&replyCache{
		ttl:   ttl,
		cache: cache.New[cachedReply](clock, 0),
		hits: reg.Counter(metrics.Labels("reply_cache_hit_total",
			"server", s.name)),
		misses: reg.Counter(metrics.Labels("reply_cache_miss_total",
			"server", s.name)),
		invalidates: reg.Counter(metrics.Labels("reply_cache_invalidate_total",
			"server", s.name)),
	})
}

// InvalidateReplies drops every cached reply. Callers that mutate the
// state behind cacheable procedures (dynamic updates, zone refreshes)
// invoke this so stale encoded answers never outlive the change by more
// than the interleaving allows; the TTL bounds anything missed.
func (s *Server) InvalidateReplies() {
	if rc := s.replies.Load(); rc != nil {
		rc.cache.Purge()
		rc.invalidates.Inc()
	}
}

// ReplyCacheStats reports the reply cache's counters (zeros when the
// cache is disabled).
func (s *Server) ReplyCacheStats() cache.Stats {
	if rc := s.replies.Load(); rc != nil {
		return rc.cache.Stats()
	}
	return cache.Stats{}
}

// replyKey builds the cache key for a request: data representation,
// procedure, and the raw argument bytes, NUL-separated. Keying on the
// undecoded bytes is what lets a hit skip demarshalling entirely.
func replyKey(rep string, proc uint32, argBytes []byte) string {
	var sb strings.Builder
	sb.Grow(len(rep) + 12 + len(argBytes))
	sb.WriteString(rep)
	sb.WriteByte(0)
	var digits [10]byte
	sb.Write(strconv.AppendUint(digits[:0], uint64(proc), 10))
	sb.WriteByte(0)
	sb.Write(argBytes)
	return sb.String()
}

// registry resolves the effective metrics registry.
func (s *Server) registry() *metrics.Registry {
	if s.Metrics != nil {
		return s.Metrics
	}
	return metrics.Default()
}

type serverProc struct {
	p Procedure
	h ProcHandler
}

// NullProcID is the conventional procedure 0: a no-op used by binding
// protocols to probe server liveness.
const NullProcID = 0

// NullProc is the procedure-0 descriptor shared by all programs.
var NullProc = Procedure{
	Name: "Null", ID: NullProcID,
	Args: marshal.TStruct(), Ret: marshal.TStruct(),
	Style: marshal.StyleNone,
}

// NewServer creates a server for program/version. Procedure 0 (null) is
// pre-registered so binding protocols can always ping it; Register may
// override it.
func NewServer(name string, program, version uint32) *Server {
	s := &Server{
		name:    name,
		program: program,
		version: version,
		procs:   make(map[uint32]serverProc),
	}
	s.procs[NullProcID] = serverProc{
		p: NullProc,
		h: func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
			return marshal.StructV(), nil
		},
	}
	return s
}

// Name reports the server's descriptive name.
func (s *Server) Name() string { return s.name }

// Program reports the server's program number.
func (s *Server) Program() uint32 { return s.program }

// Version reports the server's program version.
func (s *Server) Version() uint32 { return s.version }

// Register installs a procedure handler. Registering a duplicate procedure
// ID (other than overriding the default null proc) panics: the procedure
// table is the program's published interface, and a collision is a
// programming error.
func (s *Server) Register(p Procedure, h ProcHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.procs[p.ID]; dup && p.ID != NullProcID {
		panic(fmt.Sprintf("hrpc: server %s: duplicate procedure %d", s.name, p.ID))
	}
	s.procs[p.ID] = serverProc{p: p, h: h}
}

// Handler adapts the server to a transport.Handler speaking the given data
// representation and control protocol.
func (s *Server) Handler(rep marshal.DataRep, ctl ControlProtocol, model *simtime.Model) transport.Handler {
	reg := s.registry()
	faults := reg.Counter(metrics.Labels("hrpc_server_faults_total", "server", s.name))
	sheds := reg.Counter(metrics.Labels("hrpc_server_budget_shed_total", "server", s.name))
	// hrpc_server_calls_total{server,proc}, resolved here for every
	// procedure registered so far; one registered later is resolved per
	// call.
	callsFor := func(proc string) *metrics.Counter {
		return reg.Counter(metrics.Labels("hrpc_server_calls_total", "server", s.name, "proc", proc))
	}
	s.mu.RLock()
	calls := make(map[uint32]*metrics.Counter, len(s.procs))
	for id, sp := range s.procs {
		calls[id] = callsFor(sp.p.Name)
	}
	s.mu.RUnlock()
	return func(ctx context.Context, reqFrame []byte) ([]byte, error) {
		// A deadline-propagating caller prefixed its remaining budget;
		// strip it before the control protocol sees the frame. Callers
		// without the extension parse exactly as before.
		budget, bare, hasBudget := stripBudgetPrefix(reqFrame)
		if hasBudget {
			reqFrame = bare
		}
		ch, argBytes, err := ctl.DecodeCall(reqFrame)
		if err != nil {
			// Unparseable frame: we cannot even form a matching reply.
			faults.Inc()
			return nil, err
		}
		ch.Budget = budget
		reply := func(errMsg string, results []byte) ([]byte, error) {
			if errMsg != "" {
				faults.Inc()
			}
			return ctl.EncodeReply(ReplyHeader{XID: ch.XID, Err: errMsg}, results)
		}
		if ch.Program != s.program {
			return reply(fmt.Sprintf("program %d unavailable (this is %d %s)", ch.Program, s.program, s.name), nil)
		}
		if ch.Version != s.version {
			return reply(fmt.Sprintf("program %d version mismatch: have %d, want %d", s.program, s.version, ch.Version), nil)
		}
		s.mu.RLock()
		sp, ok := s.procs[ch.Procedure]
		s.mu.RUnlock()
		if !ok {
			return reply(fmt.Sprintf("procedure %d unavailable on program %d", ch.Procedure, s.program), nil)
		}
		if c, ok := calls[ch.Procedure]; ok {
			c.Inc()
		} else {
			callsFor(sp.p.Name).Inc()
		}

		// Admission first, budget second — both before demarshalling, so
		// shed work costs the server a header parse and nothing more.
		if s.admit != nil {
			pri := admission.High
			if s.AdmitPriority != nil {
				pri = s.AdmitPriority(ch.Procedure)
			}
			peer := transport.PeerFrom(ctx)
			if peer == "" {
				peer = "anon"
			}
			if aerr := s.admit.Admit(peer, pri); aerr != nil {
				var ov *admission.Overloaded
				if errors.As(aerr, &ov) {
					return ctl.EncodeReply(ReplyHeader{XID: ch.XID, Err: encodeOverloadedErr(ov)}, nil)
				}
				return reply(aerr.Error(), nil)
			}
			defer s.admit.Done()
		}
		if hasBudget {
			if budget <= 0 {
				// The caller's deadline passed before dispatch: computing
				// this reply would be pure waste. Shed it.
				sheds.Inc()
				return ctl.EncodeReply(ReplyHeader{XID: ch.XID, Err: encodeExpiredErr(sp.p.Name)}, nil)
			}
			// Hand the budget to the handler so a nested client (a
			// gateway forwarding this call) can propagate what remains.
			ctx = WithBudget(ctx, budget)
		}

		// Reply cache: a repeat of the identical request for a cacheable
		// procedure is answered from the stored marshalled result — only
		// the cheap per-call reply header is re-encoded (the XID differs
		// call to call). The recorded simulated cost is replayed, so the
		// cache changes real CPU and allocations, never simulated time.
		rc := s.replies.Load()
		cacheable := rc != nil && sp.p.Cacheable
		var key string
		if cacheable {
			key = replyKey(rep.Name(), ch.Procedure, argBytes)
			if e, ok := rc.cache.Get(key); ok {
				rc.hits.Inc()
				simtime.Charge(ctx, e.cost)
				return ctl.EncodeReply(ReplyHeader{XID: ch.XID}, e.results)
			}
			rc.misses.Inc()
			// Meter the work privately so its cost can be recorded for
			// replay; every path out of this call forwards it.
			m := simtime.NewMeter()
			outer := ctx
			ctx = simtime.WithMeter(ctx, m)
			defer func() { simtime.Charge(outer, m.Elapsed()) }()
		}

		args, err := marshal.Unmarshal(rep, argBytes, sp.p.Args)
		if err != nil {
			return reply(fmt.Sprintf("garbage arguments for %s: %v", sp.p.Name, err), nil)
		}
		marshal.ChargeValue(ctx, model, sp.p.Style, args)

		ret, err := sp.h(ctx, args)
		if err != nil {
			return reply(err.Error(), nil)
		}
		// Marshal into a pooled buffer: on the common (uncached) path the
		// bytes die as soon as the reply frame copies them, so they go
		// back to the pool; a cached result instead keeps its buffer.
		resBytes, err := rep.Append(bufpool.Get(64), ret, sp.p.Ret)
		if err != nil {
			return reply(fmt.Sprintf("cannot marshal %s result: %v", sp.p.Name, err), nil)
		}
		marshal.ChargeValue(ctx, model, sp.p.Style, ret)
		if cacheable {
			rc.cache.Put(key, cachedReply{results: resBytes, cost: simtime.From(ctx).Elapsed()}, rc.ttl)
			return reply("", resBytes)
		}
		out, rerr := reply("", resBytes)
		bufpool.Put(resBytes)
		return out, rerr
	}
}

// Serve binds the server to addr on the given network using the suite's
// components, returning the listener and the Binding clients should use.
// The returned binding's Addr is the listener's concrete address (which
// matters for the real-socket transports, where the kernel picks the
// port).
func Serve(net *transport.Network, s *Server, suite Suite, host, addr string) (transport.Listener, Binding, error) {
	tr, err := net.Transport(suite.Transport)
	if err != nil {
		return nil, Binding{}, err
	}
	rep, err := marshal.Lookup(suite.DataRep)
	if err != nil {
		return nil, Binding{}, err
	}
	ctl, err := LookupControl(suite.Control)
	if err != nil {
		return nil, Binding{}, err
	}
	ln, err := tr.Listen(addr, s.Handler(rep, ctl, net.Model()))
	if err != nil {
		return nil, Binding{}, err
	}
	return ln, suite.Bind(host, ln.Addr(), s.program, s.version), nil
}
