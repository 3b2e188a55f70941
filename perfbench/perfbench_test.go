package main

import (
	"strings"
	"testing"
	"time"
)

func TestWorldDeterministicPerSeed(t *testing.T) {
	for _, wl := range []string{"warm-resolve", "cold-resolve", "register-churn"} {
		a, b, c := newWorld(wl, 7), newWorld(wl, 7), newWorld(wl, 8)
		za, _ := a.metaZoneFile(5320)
		zb, _ := b.metaZoneFile(5320)
		if za != zb || a.appZoneFile() != b.appZoneFile() {
			t.Fatalf("%s: same seed gave different zone files", wl)
		}
		if a.appZoneFile() == c.appZoneFile() {
			t.Fatalf("%s: seeds 7 and 8 gave the same application zone", wl)
		}
		sa, sb, sc := a.stream(1), b.stream(1), c.stream(1)
		sa.updateShare, sb.updateShare, sc.updateShare = 0.3, 0.3, 0.3
		same := true
		for i := range 200 {
			oa, _ := sa.next()
			ob, _ := sb.next()
			oc, _ := sc.next()
			if oa != ob || sa.gap(100) != sb.gap(100) {
				t.Fatalf("%s: op %d differs for the same seed: %+v vs %+v", wl, i, oa, ob)
			}
			sc.gap(100)
			same = same && oa == oc
		}
		if same {
			t.Fatalf("%s: seeds 7 and 8 drew the same 200 requests", wl)
		}
	}
}

func TestStreamsOfOnePhaseAreIndependent(t *testing.T) {
	w := newWorld("warm-resolve", 3)
	s1, s2 := w.stream(1), w.stream(2)
	differ := false
	for range 50 {
		a, _ := s1.next()
		b, _ := s2.next()
		differ = differ || a != b
	}
	if !differ {
		t.Fatal("two salts drew the same requests")
	}
}

func TestColdNamesAreFreshAndRunOut(t *testing.T) {
	w := newWorld("cold-resolve", 1)
	s := w.stream(1)
	seen := make(map[string]bool)
	for i := range coldNames {
		o, ok := s.next()
		if !ok {
			t.Fatalf("ran out after %d names", i)
		}
		if seen[o.ctx] || seen[o.host] {
			t.Fatalf("name reused at %d: %+v", i, o)
		}
		seen[o.ctx], seen[o.host] = true, true
		if _, ok := w.addrs[o.host]; !ok {
			t.Fatalf("fresh host %s is not in the world", o.host)
		}
	}
	if _, ok := s.next(); ok {
		t.Fatal("a name was handed out past the namespace")
	}
}

func TestCheckFlagsWrongAddress(t *testing.T) {
	w := newWorld("warm-resolve", 1)
	h := w.hosts[0]
	if err := w.check(h, w.addrs[h]); err != nil {
		t.Fatalf("right address rejected: %v", err)
	}
	if err := w.check(h, "10.255.255.255"); err == nil || !strings.Contains(err.Error(), "wrong address") {
		t.Fatalf("wrong address not flagged: %v", err)
	}
	if err := w.check("nosuch."+appZone, "10.0.0.1"); err == nil {
		t.Fatal("a host outside the world was accepted")
	}
}

func TestZoneFilesHoldTheWorld(t *testing.T) {
	w := newWorld("register-churn", 2)
	meta, err := w.metaZoneFile(6000)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"port=6000", churnName(0) + ".ctx.hns", "hostaddress.bind-cs.qc.hns"} {
		if !strings.Contains(meta, want) {
			t.Errorf("meta zone lacks %q", want)
		}
	}
	app := w.appZoneFile()
	if !strings.Contains(app, w.hosts[5]+" 600 A "+w.addrs[w.hosts[5]]) {
		t.Errorf("application zone lacks %s", w.hosts[5])
	}
}

func TestSelfTime(t *testing.T) {
	sp := func(id, parent uint64, name string, s, e int64) span {
		return span{Trace: 1, ID: id, Parent: parent, Name: name, Start: s, End: e}
	}
	op := sp(1, 0, "op", 0, 100)
	kids := []span{
		sp(2, 1, "a", 10, 30),
		sp(3, 1, "b", 20, 50),  // overlaps a: counted once
		sp(4, 1, "c", 90, 120), // runs past the parent: clipped
		sp(5, 1, "d", 200, 300),
	}
	if got := covered(op, kids); got != 50 {
		t.Fatalf("covered = %d, want 50", got)
	}
	if got := selfTime(op, kids); got != 50 {
		t.Fatalf("selfTime = %d, want 50", got)
	}
	if got := selfTime(op, nil); got != 100 {
		t.Fatalf("selfTime without children = %d, want 100", got)
	}
	total, self := selfTotal(append(kids, op, sp(6, 0, "op", 0, 10)), "op")
	if total != 110 || self != 60 {
		t.Fatalf("self/total = %d/%d, want 60/110", self, total)
	}
}

func TestParseProcStat(t *testing.T) {
	line := "4242 (my (odd) proc) S 1 4242 4242 0 -1 4194560 1200 0 3 0 731 219 0 0 20 0 9 0 123456 1000000 500 18446744073709551615\n"
	u, s, err := parseProcStat([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if u != 731 || s != 219 {
		t.Fatalf("utime, stime = %d, %d; want 731, 219", u, s)
	}
	if _, _, err := parseProcStat([]byte("4242 (cut) S 1 2")); err == nil {
		t.Fatal("a truncated stat line parsed")
	}
}

func TestParseStatusField(t *testing.T) {
	status := "Name:\tbindd\nVmPeak:\t  800000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t   10000 kB\n"
	v, err := parseStatusField([]byte(status), "VmHWM")
	if err != nil || v != 12345 {
		t.Fatalf("VmHWM = %d, %v; want 12345", v, err)
	}
	if _, err := parseStatusField([]byte(status), "VmSwap"); err == nil {
		t.Fatal("a missing field parsed")
	}
}

func TestParseMetrics(t *testing.T) {
	text := `bind_queries_total{type="HNSMETA",rcode="NOERROR"} 4
bind_queries_total{type="A",rcode="NXDOMAIN"} 2
core_findnsm_errors_total 0
cache_hits_total{cache="meta"} 6
cache_hits_total{cache="other"} 100
wal_fsync_seconds{store="tahoma"}_count 2
wal_fsync_seconds{store="tahoma"}_sum_ms 0.966
wal_fsync_seconds{store="tahoma"}_bucket{le="0.5"} 1
`
	m, err := parseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, suffix string
		labels       []string
		want         float64
		ok           bool
	}{
		{"bind_queries_total", "", nil, 6, true},
		{"bind_queries_total", "", []string{`rcode="NOERROR"`}, 4, true},
		{"cache_hits_total", "", []string{`cache="meta"`}, 6, true},
		{"core_findnsm_errors_total", "", nil, 0, true},
		{"wal_fsync_seconds", "_sum_ms", nil, 0.966, true},
		{"wal_fsync_seconds", "_count", nil, 2, true},
		{"hrpc_client_retries_total", "", nil, 0, false},
	} {
		got, ok := m.sum(c.name, c.suffix, c.labels...)
		if got != c.want || ok != c.ok {
			t.Errorf("sum(%s%s %v) = %v, %v; want %v, %v", c.name, c.suffix, c.labels, got, ok, c.want, c.ok)
		}
	}
	if _, err := parseMetrics(strings.NewReader("broken_line\n")); err == nil {
		t.Fatal("a line without a value parsed")
	}
}

func TestWindowedStatistics(t *testing.T) {
	const n = 8
	span := n * time.Second
	var ss []sample
	for w := range n {
		for i := range quantileWindowSamples {
			lat := time.Duration(i%100+1) * time.Microsecond
			if w == 0 {
				lat *= 100 // one disturbed window must not move the median
			}
			at := time.Duration(w)*time.Second + time.Duration(i)*time.Second/quantileWindowSamples
			ss = append(ss, sample{at: at, lat: lat})
		}
	}
	qs := windowQuantiles(ss, span, 0.99)
	if len(qs) != n || median(qs) != 99 || qs[0] != 9900 {
		t.Fatalf("window p99s = %v, want %d windows with median 99", qs, n)
	}
	if got := percentile(lats(ss[1000:1100]), 0.5); got != 50*time.Microsecond {
		t.Fatalf("p50 = %v, want 50us", got)
	}
}

func TestQuietMedianSkipsStolenSlices(t *testing.T) {
	vals := []float64{100, 900, 110, 800, 120, 700, 500, 600}
	steal := []uint64{0, 9, 1, 8, 0, 7, 3, 2}
	// The quietest quarter ends at the second least stolen slice (steal 0).
	if got := quietMedian(vals, steal); got != 110 {
		t.Fatalf("quietMedian = %v, want 110 (the median of the slices without steal)", got)
	}
	// Every slice with as little steal as that one counts.
	if got := quietMedian([]float64{5, 1, 3, 9}, []uint64{0, 0, 0, 4}); got != 3 {
		t.Fatalf("quietMedian with equal steal = %v, want 3", got)
	}
}

func TestParseSteal(t *testing.T) {
	got, err := parseSteal([]byte("cpu  482595 0 253020 1068023 17819 0 57451 42513 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n"))
	if err != nil || got != 42513 {
		t.Fatalf("parseSteal = %d, %v; want 42513", got, err)
	}
	if _, err := parseSteal([]byte("intr 1 2 3\n")); err == nil {
		t.Fatal("a file without a cpu line parsed")
	}
}
