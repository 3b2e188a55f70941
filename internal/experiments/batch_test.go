package experiments

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestBatchDocGolden locks the BENCH_batch.json schema: field names,
// nesting, and ordering. The result is a synthetic fixture, so the
// golden file captures the document layout without depending on the
// host; regenerate with `go test ./internal/experiments -run
// BatchDocGolden -update-golden` when the schema intentionally changes
// (and bump BatchSchema).
func TestBatchDocGolden(t *testing.T) {
	spec := BatchSpec{
		Names:           16,
		Callers:         64,
		Rounds:          8,
		ShedCallers:     10000,
		ShedMaxInflight: 64,
		ShedHandle:      200 * time.Microsecond,
	}
	res := BatchResult{
		Frames: BatchFrames{
			Names: 16, BatchFrames: 2, SingleFrames: 32, Amortization: 16,
		},
		Throughput: BatchThroughput{
			Callers: 64, Rounds: 8,
			BatchNamesPerSec: 250000.5, SingleNamesPerSec: 31000.25, Speedup: 8.06,
		},
		Shed: BatchShed{
			Callers: 10000, MaxInflight: 64,
			UncappedP99Ms: 1980.5, CappedServedP99Ms: 13.25,
			Served: 80, Refused: 9920,
		},
	}
	buf, err := EncodeBatchDoc(BuildBatchDoc(spec, res))
	if err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "BENCH_batch.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(want) {
		t.Errorf("BENCH_batch.json schema drifted from %s;\ngot:\n%s\nwant:\n%s\n"+
			"(rerun with -update-golden and bump BatchSchema if intentional)",
			golden, buf, want)
	}
}

func TestBatchSpecValidate(t *testing.T) {
	good := DefaultBatchSpec()
	if err := good.Validate(); err != nil {
		t.Fatalf("default batch spec rejected: %v", err)
	}
	bad := []BatchSpec{
		func() BatchSpec { s := good; s.Names = 0; return s }(),
		func() BatchSpec { s := good; s.Names = 1000; return s }(),
		func() BatchSpec { s := good; s.Callers = 0; return s }(),
		func() BatchSpec { s := good; s.Rounds = 0; return s }(),
		func() BatchSpec { s := good; s.ShedCallers = 0; return s }(),
		func() BatchSpec { s := good; s.ShedMaxInflight = 0; return s }(),
		func() BatchSpec { s := good; s.ShedHandle = -time.Second; return s }(),
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad batch spec %d accepted: %+v", i, s)
		}
	}
}

// smallBatchSpec keeps the experiment fast enough for the ordinary test
// tier; the full DefaultBatchSpec crowd runs in hnsbench and the smoke
// script's shed tier.
func smallBatchSpec() BatchSpec {
	return BatchSpec{
		Names:           16,
		Callers:         8,
		Rounds:          2,
		ShedCallers:     200,
		ShedMaxInflight: 8,
		ShedHandle:      200 * time.Microsecond,
	}
}

// TestRunBatchContracts runs the whole experiment small and asserts the
// PR's bench bar where it is host-independent (frames) and directional
// where it is wall-clock (throughput, shed p99).
func TestRunBatchContracts(t *testing.T) {
	// Rounds sizes only the throughput half. At 2 rounds (256 single
	// calls, well under a millisecond) the comparison flipped now and
	// then while other packages' tests ran on the same 2 vCPUs; 256
	// rounds (~32k single calls, a few hundred ms) keep it stable.
	spec := smallBatchSpec()
	spec.Rounds = 256
	res, err := RunBatch(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	// The deterministic bar: a batch of 16 must move >= 4x fewer frames
	// than 16 singles (it actually moves 16x fewer — one exchange).
	f := res.Frames
	if f.BatchFrames <= 0 || f.SingleFrames <= 0 {
		t.Fatalf("frame counters did not move: %+v", f)
	}
	if f.Amortization < 4 {
		t.Fatalf("batch amortization %.1fx (batch %d vs single %d frames), want >= 4x",
			f.Amortization, f.BatchFrames, f.SingleFrames)
	}

	// Wall-clock, so directional only: batching a 16-name working set
	// must not be slower than 16 sequential singles per round. One run
	// on a loaded 1-core host can land either way, so an apparent loss
	// gets two re-measurements before it counts.
	tp := res.Throughput
	if tp.BatchNamesPerSec <= 0 || tp.SingleNamesPerSec <= 0 {
		t.Fatalf("throughput arms did not run: %+v", tp)
	}
	for retry := 0; tp.Speedup <= 1 && retry < 2; retry++ {
		t.Logf("batch arm slower than singles (%.2fx), re-measuring", tp.Speedup)
		again, err := RunBatch(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		tp = again.Throughput
	}
	if tp.Speedup <= 1 {
		t.Errorf("batch arm slower than singles: %.2fx (%+v)", tp.Speedup, tp)
	}

	// The shed bar: the capped arm refuses part of the crowd and its
	// served p99 stays below the uncapped arm's crowd-sized p99.
	sh := res.Shed
	if sh.Served < 1 || sh.Refused < 1 {
		t.Fatalf("capped arm should serve some and refuse some: %+v", sh)
	}
	if sh.CappedServedP99Ms >= sh.UncappedP99Ms {
		t.Errorf("shedding did not bound served p99: capped %.2fms vs uncapped %.2fms",
			sh.CappedServedP99Ms, sh.UncappedP99Ms)
	}
}

// TestBatchFramesDeterministic pins the frames part of the experiment to
// exact values: one warm batch is one request/reply exchange (2 frames),
// singles are one exchange per name.
func TestBatchFramesDeterministic(t *testing.T) {
	spec := smallBatchSpec()
	e, err := newBatchEnv(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	a, err := runBatchFrames(context.Background(), spec, e)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runBatchFrames(context.Background(), spec, e)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("frame counts not deterministic: %+v vs %+v", a, b)
	}
	if a.BatchFrames != 2 {
		t.Fatalf("warm batch moved %d frames, want 2 (one exchange)", a.BatchFrames)
	}
	if a.SingleFrames != int64(2*spec.Names) {
		t.Fatalf("%d singles moved %d frames, want %d", spec.Names, a.SingleFrames, 2*spec.Names)
	}
}

// TestBatchShed10K is the full ISSUE bar at fleet scale: a 10,000-caller
// crowd against the capped front door. scripts/smoke.sh runs it under
// -race; it is skipped in -short runs.
func TestBatchShed10K(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-caller crowd skipped in -short")
	}
	spec := DefaultBatchSpec()
	uncapped, _, _, err := runShedArm(context.Background(), spec, false)
	if err != nil {
		t.Fatal(err)
	}
	capped, served, refused, err := runShedArm(context.Background(), spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if served < 1 || refused < 1 {
		t.Fatalf("capped arm should serve some and refuse some: served %d refused %d", served, refused)
	}
	if capped >= uncapped {
		t.Errorf("shedding did not bound served p99 at 10k callers: capped %v vs uncapped %v", capped, uncapped)
	}
}
