package experiments

import (
	"context"
	"fmt"
	"testing"
	"time"

	"hns/internal/bind"
	"hns/internal/hrpc"
	"hns/internal/simtime"
	"hns/internal/world"
)

// ReplyCacheResult is one row of the Table 3.2 extension: the effect of
// *server-side* marshalled-form caching on a repeat BIND lookup. Table 3.2
// proper is about the client's cache entry form; this measures the other
// end — the server answering a repeat identical request from its stored
// marshalled reply instead of re-running demarshal → zone lookup →
// marshal. Simulated cost must be identical with the cache off and on
// (the hit replays the recorded cost); the win shows up in real ns/op and
// allocs/op, which is what the wire-path work optimizes.
type ReplyCacheResult struct {
	Records int

	// Warm per-call simulated cost with the server reply cache off / on.
	// Equal by construction (cost replay) — printed so a regression is
	// visible next to the real-time numbers.
	SimOff, SimOn time.Duration

	// Real wall-clock ns per warm call, cache off / on.
	NsOff, NsOn float64

	// Heap allocations per warm call (whole process, the server's work
	// included — the suite is in-process), cache off / on.
	AllocsOff, AllocsOn float64

	// HitRate is the server reply cache's hit rate over the measured
	// calls of the cache-on arm.
	HitRate float64
}

// replyCacheIters is how many warm calls each timing arm averages over.
const replyCacheIters = 400

// RunReplyCache measures server-side marshalled-reply caching on the BIND
// HRPC interface, colocated (SuiteLocal) like the Table 3.2 setup so the
// numbers isolate server work rather than transport.
func RunReplyCache(ctx context.Context, w *world.World) ([]ReplyCacheResult, error) {
	cases := []struct {
		records int
		name    string
	}{
		{1, world.HostBind},
		{6, world.GatewayHost},
	}

	// One server per arm: a plain HRPC interface and one with the
	// marshalled-reply cache enabled.
	arm := func(addr string, withCache bool) (*bind.HRPCClient, *hrpc.Server, func(), error) {
		hs := w.BindServer.HRPCServer()
		if withCache {
			hs.EnableReplyCache(w.Clock, time.Hour)
		}
		ln, hb, err := hrpc.Serve(w.Net, hs, hrpc.SuiteLocal, "fiji", addr)
		if err != nil {
			return nil, nil, nil, err
		}
		client := hrpc.NewClient(w.Net)
		return bind.NewHRPCClient(client, hb), hs, func() { client.Close(); ln.Close() }, nil
	}

	off, _, closeOff, err := arm("fiji:bind-hrpc-rcoff", false)
	if err != nil {
		return nil, err
	}
	defer closeOff()
	on, onSrv, closeOn, err := arm("fiji:bind-hrpc-rcon", true)
	if err != nil {
		return nil, err
	}
	defer closeOn()

	measure := func(c *bind.HRPCClient, name string, records int) (sim time.Duration, nsOp, allocs float64, err error) {
		lookup := func(ctx context.Context) error {
			rrs, lerr := c.Lookup(ctx, name, bind.TypeA)
			if lerr != nil {
				return lerr
			}
			if len(rrs) != records {
				return fmt.Errorf("replycache: %s returned %d records, want %d", name, len(rrs), records)
			}
			return nil
		}
		if err = lookup(ctx); err != nil { // warm the server
			return
		}
		if sim, err = simtime.Measure(ctx, lookup); err != nil {
			return
		}
		allocs = testing.AllocsPerRun(replyCacheIters, func() {
			if lerr := lookup(ctx); lerr != nil {
				err = lerr
			}
		})
		if err != nil {
			return
		}
		start := time.Now()
		for i := 0; i < replyCacheIters; i++ {
			if err = lookup(ctx); err != nil {
				return
			}
		}
		nsOp = float64(time.Since(start)) / replyCacheIters
		return
	}

	var out []ReplyCacheResult
	for _, c := range cases {
		row := ReplyCacheResult{Records: c.records}
		if row.SimOff, row.NsOff, row.AllocsOff, err = measure(off, c.name, c.records); err != nil {
			return nil, err
		}
		before := onSrv.ReplyCacheStats()
		if row.SimOn, row.NsOn, row.AllocsOn, err = measure(on, c.name, c.records); err != nil {
			return nil, err
		}
		after := onSrv.ReplyCacheStats()
		hits := after.Hits - before.Hits
		misses := after.Misses - before.Misses
		if total := hits + misses; total > 0 {
			row.HitRate = float64(hits) / float64(total)
		}
		out = append(out, row)
	}
	return out, nil
}
