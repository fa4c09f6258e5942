package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/rules"
	"repro/internal/shard"
)

// testEnv is the Rule 9 block every test unit records (the unit env is
// shared; host envs are what distinguish workers).
var testEnv = rules.Environment{
	Processor:        "simulated 64-rank cluster",
	Network:          "simulated fat-tree",
	InputAndCode:     "internal/remote tests",
	MeasurementSetup: "deterministic seeded measure source",
}

type unitCfg struct {
	Name string  `json:"name"`
	Base float64 `json:"base"`
}

// testRunner rebuilds the deterministic measurement for a unit; the
// same unit yields the same samples on every worker (the invariant the
// whole transport leans on). throttle slows samples so tests can cut a
// partition mid-unit; calls counts real measurements for resume
// assertions; samples overrides the per-unit sample count (default 12).
type testRunner struct {
	throttle time.Duration
	calls    *atomic.Int64
	samples  int
}

func (r testRunner) Setup(u shard.Unit) (campaign.Manifest, bench.Plan, func() (float64, error), error) {
	var cfg unitCfg
	if err := json.Unmarshal(u.Config, &cfg); err != nil {
		return campaign.Manifest{}, bench.Plan{}, nil, err
	}
	man, err := campaign.NewManifest(u.ID, u.Seed, cfg, nil, testEnv)
	if err != nil {
		return campaign.Manifest{}, bench.Plan{}, nil, err
	}
	rng := rand.New(rand.NewSource(int64(u.Seed)))
	measure := func() (float64, error) {
		if r.throttle > 0 {
			time.Sleep(r.throttle)
		}
		if r.calls != nil {
			r.calls.Add(1)
		}
		return cfg.Base * (1 + 0.05*rng.Float64()), nil
	}
	samples := r.samples
	if samples == 0 {
		samples = 12
	}
	return man, bench.Plan{Warmup: 2, MinSamples: samples, Workers: 1}, measure, nil
}

func testFaultFP(t testing.TB) string {
	t.Helper()
	fp, err := campaign.HashJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func makeUnits(t testing.TB, k int) []shard.Unit {
	t.Helper()
	units := make([]shard.Unit, k)
	for i := range units {
		cfg := unitCfg{Name: fmt.Sprintf("cfg-%02d", i), Base: 100 + 10*float64(i)}
		raw, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ch, err := campaign.HashJSON(cfg)
		if err != nil {
			t.Fatal(err)
		}
		units[i] = shard.Unit{
			ID:         fmt.Sprintf("u%02d-%s", i, cfg.Name),
			Seed:       42 + uint64(i),
			ConfigHash: ch,
			Config:     raw,
		}
	}
	return units
}

func buildSweep(t testing.TB, dir string, k, n int) shard.SweepManifest {
	t.Helper()
	sw, err := shard.NewSweep("remote-sweep", makeUnits(t, k), testFaultFP(t), testEnv, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := shard.Create(dir, sw); err != nil {
		t.Fatal(err)
	}
	return sw
}

// referenceReport runs the identical sweep single-process and returns
// the canonical report bytes — what every distributed run must equal.
func referenceReport(t *testing.T, k int, r testRunner) []byte {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "ref")
	sw := buildSweep(t, dir, k, 1)
	for i := range sw.Shards() {
		sd := filepath.Join(dir, shard.ShardDirName(i))
		if _, err := shard.ExecShard(context.Background(), sd, r, shard.ExecOptions{}); err != nil {
			t.Fatalf("reference shard %d: %v", i, err)
		}
	}
	return mergedReport(t, dir)
}

func mergedReport(t *testing.T, dir string) []byte {
	t.Helper()
	rep, err := shard.Merge(dir)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	var buf bytes.Buffer
	if err := rep.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// hostBEnv is a second, distinct Rule 9 host record so single-machine
// tests exercise genuine cross-host stratification.
func hostBEnv() rules.Environment {
	env := HostEnv()
	env.MeasurementSetup = "scibench worker on host-b (test double)"
	return env
}

// TestLoopbackTwoWorkersFaultyByteIdentity is the acceptance backbone:
// a sweep distributed over two workers on loopback HTTP, with injected
// message loss, delay, and duplication on both links, must merge to the
// byte-identical report of the single-process run — with per-host
// fingerprints recorded and stratified.
func TestLoopbackTwoWorkersFaultyByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("drives wall-clock supervision loops")
	}
	ref := referenceReport(t, 6, testRunner{})

	dir := filepath.Join(t.TempDir(), "sweep")
	buildSweep(t, dir, 6, 2)
	c, err := NewCoordinator(dir, CoordinatorOptions{Seed: 7, AssignRetries: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	faulty := func(seed uint64) *FaultTransport {
		ft := NewFaultTransport(seed, nil)
		ft.DropProb = 0.12
		ft.DelayProb = 0.25
		ft.Delay = 2 * time.Millisecond
		ft.DupProb = 0.12
		return ft
	}
	envB := hostBEnv()
	for i, opt := range []WorkerOptions{
		{Hostname: "host-a"},
		{Hostname: "host-b", Env: &envB},
	} {
		opt.Coordinator = c.URL()
		opt.WorkDir = filepath.Join(t.TempDir(), fmt.Sprintf("w%d", i))
		opt.Runner = testRunner{}
		opt.Heartbeat = 50 * time.Millisecond
		opt.ShipInterval = 25 * time.Millisecond
		opt.Seed = uint64(100 + i)
		opt.Transport = faulty(uint64(1000 + i))
		w, err := StartWorker(opt)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
	}
	if err := c.WaitForWorkers(context.Background(), 2); err != nil {
		t.Fatal(err)
	}

	statuses, err := shard.Supervise(context.Background(), dir, c.StartFunc(), shard.Options{
		HeartbeatTimeout: 3 * time.Second,
		Retries:          4,
		Backoff:          50 * time.Millisecond,
		Seed:             7,
	})
	if err != nil {
		t.Fatalf("supervise: %v", err)
	}
	for _, st := range statuses {
		if st.Lost {
			t.Fatalf("shard %d lost under injected faults: %+v", st.Shard, st)
		}
	}

	got := mergedReport(t, dir)
	if !bytes.Equal(got, ref) {
		t.Errorf("distributed report differs from single-process run:\n--- ref\n%s\n--- got\n%s", ref, got)
	}
	rep, err := shard.Merge(dir)
	if err != nil {
		t.Fatal(err)
	}
	hosts := map[string]bool{}
	for _, s := range rep.Shards {
		if s.HostFingerprint == "" || s.Host == "" {
			t.Errorf("shard %d merged without host provenance: %+v", s.Index, s)
		}
		hosts[s.HostFingerprint] = true
	}
	if len(hosts) == 2 && len(rep.Strata) != 2 {
		t.Errorf("two distinct hosts measured but %d strata recorded", len(rep.Strata))
	}
}

// TestPartitionReassignmentByteIdentity kills the link to the worker
// holding the only shard mid-unit. The coordinator must see the stall,
// fence the attempt, reassign to the second worker — which resumes from
// the shipped journal rather than re-measuring — and the healed
// zombie's late chunks must be refused. The merged report stays
// byte-identical to the single-process run.
func TestPartitionReassignmentByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("drives wall-clock supervision loops")
	}
	// Units longer than one 64-record journal chunk, so a chunk seals
	// and ships while the unit is still measuring.
	const k, samples = 4, 120
	ref := referenceReport(t, k, testRunner{samples: samples})

	dir := filepath.Join(t.TempDir(), "sweep")
	buildSweep(t, dir, k, 1)
	c, err := NewCoordinator(dir, CoordinatorOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ftA := NewFaultTransport(11, nil)
	ftA.DropProb = 0.05
	var callsA, callsB atomic.Int64
	mkWorker := func(name string, ft http.RoundTripper, calls *atomic.Int64, env *rules.Environment) *Worker {
		w, err := StartWorker(WorkerOptions{
			Coordinator:  c.URL(),
			WorkDir:      filepath.Join(t.TempDir(), name),
			Runner:       testRunner{throttle: 5 * time.Millisecond, calls: calls, samples: samples},
			Hostname:     name,
			Env:          env,
			Heartbeat:    50 * time.Millisecond,
			ShipInterval: 25 * time.Millisecond,
			Seed:         3,
			Transport:    ft,
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	wA := mkWorker("host-a", ftA, &callsA, nil)
	defer wA.Close()
	envB := hostBEnv()
	wB := mkWorker("host-b", nil, &callsB, &envB)
	defer wB.Close()
	if err := c.WaitForWorkers(context.Background(), 2); err != nil {
		t.Fatal(err)
	}

	// Cut the link once the mirror proves worker A is mid-shard: the
	// first unit fully shipped and verified-complete, the second unit's
	// journal shipped up to its first sealed chunk.
	shardDir := filepath.Join(dir, shard.ShardDirName(0))
	u0 := filepath.Join(shardDir, shard.UnitsDir, "u00-cfg-00", shard.UnitResultFile)
	u1 := filepath.Join(shardDir, shard.UnitsDir, "u01-cfg-01", campaign.JournalFile)
	partitioned := make(chan struct{})
	go func() {
		defer close(partitioned)
		deadline := time.Now().Add(20 * time.Second)
		for time.Now().Before(deadline) {
			if _, err := os.Stat(u0); err == nil {
				if fi, err := os.Stat(u1); err == nil && fi.Size() > 8 {
					ftA.Partition()
					return
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	statuses, err := shard.Supervise(context.Background(), dir, c.StartFunc(), shard.Options{
		HeartbeatTimeout: 700 * time.Millisecond,
		Retries:          2,
		Backoff:          50 * time.Millisecond,
		Seed:             9,
	})
	if err != nil {
		t.Fatalf("supervise: %v", err)
	}
	<-partitioned
	if !ftA.Partitioned() {
		t.Fatal("partition trigger never fired — the shard completed before mid-unit state was observable")
	}
	st := statuses[0]
	if st.Lost {
		t.Fatalf("shard lost despite a second worker: %+v", st)
	}
	if st.Attempts < 2 || st.Stalls < 1 {
		t.Fatalf("partition did not force a stall reassignment: %+v", st)
	}

	// The replacement worker resumed from the mirror: it measured
	// something, but strictly less than the whole sweep (the completed
	// first unit shipped before the cut is never re-measured).
	const perUnit = samples + 2 // Warmup 2 + MinSamples per unit
	full := int64(k * perUnit)
	if callsB.Load() == 0 {
		t.Fatal("worker B measured nothing; reassignment never reached it")
	}
	if callsB.Load() > full-perUnit {
		t.Errorf("worker B re-measured completed observations: %d calls, want ≤ %d", callsB.Load(), full-perUnit)
	}

	// Completion provenance: attempt 2, worker B's host.
	d, ok := shard.LoadDone(shardDir)
	if !ok || d.Attempt != 2 {
		t.Fatalf("done sentinel: %+v ok=%v, want attempt 2", d, ok)
	}
	if h, ok := shard.LoadHost(shardDir); !ok || h.Hostname != "host-b" {
		t.Fatalf("host record: %+v ok=%v, want host-b", h, ok)
	}

	// Heal the zombie's link: its late traffic must be refused as stale
	// and its executor must stand down, with the mirror untouched.
	before := mergedReport(t, dir)
	ftA.Heal()
	deadline := time.Now().Add(10 * time.Second)
	for {
		wA.mu.Lock()
		n := len(wA.jobs)
		wA.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("zombie worker A never stood down after heal")
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // let any straggler frames land (and be refused)
	after := mergedReport(t, dir)
	if !bytes.Equal(before, after) {
		t.Error("zombie traffic after heal changed the merged report")
	}
	if !bytes.Equal(after, ref) {
		t.Errorf("post-partition report differs from single-process run:\n--- ref\n%s\n--- got\n%s", ref, after)
	}
}

// TestAllWorkersUnreachableDegrades: when no worker can be reached, the
// retry budget exhausts, the shard is reported lost, and the merge
// carries the loss explicitly (Rule 4) with a degraded verdict.
func TestAllWorkersUnreachableDegrades(t *testing.T) {
	if testing.Short() {
		t.Skip("drives wall-clock supervision loops")
	}
	dir := filepath.Join(t.TempDir(), "sweep")
	buildSweep(t, dir, 2, 1)
	c, err := NewCoordinator(dir, CoordinatorOptions{Seed: 5, AssignRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ft := NewFaultTransport(1, nil)
	w, err := StartWorker(WorkerOptions{
		Coordinator:  c.URL(),
		WorkDir:      filepath.Join(t.TempDir(), "w"),
		Runner:       testRunner{},
		Hostname:     "host-a",
		ShipInterval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := c.WaitForWorkers(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	// Partition from the start: every assignment RPC fails.
	ft.Partition()
	c.client.Transport = ft

	statuses, err := shard.Supervise(context.Background(), dir, c.StartFunc(), shard.Options{
		HeartbeatTimeout: 500 * time.Millisecond,
		Retries:          1,
		Backoff:          30 * time.Millisecond,
		Seed:             5,
	})
	if err != nil {
		t.Fatalf("supervise: %v", err)
	}
	if !statuses[0].Lost {
		t.Fatalf("unreachable worker should lose the shard: %+v", statuses[0])
	}
	rep, err := shard.Merge(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stop != bench.StopDegraded || rep.UnitsLost != 2 {
		t.Fatalf("merge verdict = %q, lost %d; want degraded with 2 lost", rep.Stop, rep.UnitsLost)
	}
	found := false
	for _, f := range rep.Findings {
		if f.Rule == 4 {
			found = true
		}
	}
	if !found {
		t.Error("no Rule 4 loss finding for the abandoned units")
	}
}

// TestZombieFencing drives the fencing protocol at the wire level with
// a stub worker: once the supervisor kills an attempt, every message
// carrying its attempt number — chunk, heartbeat, completion — must be
// refused and the mirror left untouched.
func TestZombieFencing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sweep")
	sw := buildSweep(t, dir, 2, 1)
	c, err := NewCoordinator(dir, CoordinatorOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Stub worker: accepts every assignment, runs nothing.
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSONResp(w, AssignResponse{OK: true})
	}))
	defer stub.Close()
	client := &http.Client{Timeout: 2 * time.Second}
	var reg RegisterResponse
	env := HostEnv()
	fp, _ := Fingerprint(env)
	if err := postJSON(client, c.URL()+PathRegister, RegisterRequest{
		Protocol: ProtocolVersion, Addr: stub.URL, Hostname: "stub", Env: env, EnvFingerprint: fp,
	}, &reg); err != nil {
		t.Fatal(err)
	}
	if reg.SweepHash != sw.SweepHash {
		t.Fatalf("registration sweep hash %s, want %s", reg.SweepHash, sw.SweepHash)
	}

	start := c.StartFunc()
	h1, err := start(filepath.Join(dir, shard.ShardDirName(0)), 1)
	if err != nil {
		t.Fatal(err)
	}

	chunk := func(attempt int, path string, off int64, data []byte) ChunkResponse {
		t.Helper()
		var resp ChunkResponse
		if err := postJSON(client, c.URL()+PathChunk, ChunkFrame{
			WorkerID: reg.WorkerID, SweepHash: sw.SweepHash, Shard: 0, Attempt: attempt,
			Path: path, Off: off, Data: data, CRC: crc32.ChecksumIEEE(data),
		}, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	jpath := shard.UnitsDir + "/" + sw.Units[0].ID + "/" + campaign.JournalFile

	if resp := chunk(1, jpath, 0, []byte("alive\n")); !resp.OK {
		t.Fatalf("live attempt's chunk refused: %+v", resp)
	}
	mirror := filepath.Join(dir, shard.ShardDirName(0), filepath.FromSlash(jpath))
	before, err := os.ReadFile(mirror)
	if err != nil {
		t.Fatal(err)
	}

	// Supervisor kills attempt 1 (stall, partition — reason irrelevant).
	if err := h1.Kill(); err != nil {
		t.Fatal(err)
	}
	if resp := chunk(1, jpath, int64(len(before)), []byte("zombie\n")); resp.OK || !resp.Stale {
		t.Fatalf("killed attempt's chunk accepted: %+v", resp)
	}
	var hbResp ChunkResponse
	if err := postJSON(client, c.URL()+PathHeartbeat, HeartbeatMsg{
		WorkerID: reg.WorkerID, SweepHash: sw.SweepHash, Shard: 0, Attempt: 1,
		HB: shard.Heartbeat{Seq: 99, Attempt: 1},
	}, &hbResp); err != nil {
		t.Fatal(err)
	}
	if hbResp.OK || !hbResp.Stale {
		t.Fatalf("killed attempt's heartbeat accepted: %+v", hbResp)
	}
	var doneResp DoneResponse
	if err := postJSON(client, c.URL()+PathDone, DoneRequest{
		WorkerID: reg.WorkerID, SweepHash: sw.SweepHash, Shard: 0, Attempt: 1,
		Done: shard.ShardDone{Shard: 0, SweepHash: sw.SweepHash, Attempt: 1},
	}, &doneResp); err != nil {
		t.Fatal(err)
	}
	if doneResp.OK || !doneResp.Stale {
		t.Fatalf("killed attempt's completion accepted: %+v", doneResp)
	}

	// Reassignment: attempt 2 owns the shard; attempt 1 frames stay dead.
	if _, err := start(filepath.Join(dir, shard.ShardDirName(0)), 2); err != nil {
		t.Fatal(err)
	}
	if resp := chunk(1, jpath, int64(len(before)), []byte("zombie\n")); resp.OK || !resp.Stale {
		t.Fatalf("stale attempt accepted after reassignment: %+v", resp)
	}
	if resp := chunk(2, jpath, int64(len(before)), []byte("successor\n")); !resp.OK {
		t.Fatalf("successor attempt refused: %+v", resp)
	}
	after, err := os.ReadFile(mirror)
	if err != nil {
		t.Fatal(err)
	}
	want := string(before) + "successor\n"
	if string(after) != want {
		t.Fatalf("mirror corrupted by zombie: %q, want %q", after, want)
	}
}

// TestChunkApplySemantics pins the mirror's apply rules: in-order
// append, idempotent duplicates, refused gaps, and bounded truncation.
func TestChunkApplySemantics(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, shard.ShardDirName(0)), 0o755); err != nil {
		t.Fatal(err)
	}
	c := &Coordinator{sweepDir: dir}
	path := shard.UnitsDir + "/u00-x/" + campaign.JournalFile
	frame := func(off int64, data []byte, trunc bool) ChunkFrame {
		return ChunkFrame{WorkerID: "w000", Shard: 0, Attempt: 1, Path: path,
			Off: off, Data: data, CRC: crc32.ChecksumIEEE(data), Truncate: trunc}
	}
	if resp := c.applyChunk(frame(0, []byte("aaaa"), false)); !resp.OK || resp.ResumeOff != 4 {
		t.Fatalf("initial append: %+v", resp)
	}
	if resp := c.applyChunk(frame(4, []byte("bbbb"), false)); !resp.OK || resp.ResumeOff != 8 {
		t.Fatalf("sequential append: %+v", resp)
	}
	// Duplicate delivery: acknowledged, not rewritten.
	if resp := c.applyChunk(frame(4, []byte("XXXX"), false)); !resp.OK || resp.ResumeOff != 8 {
		t.Fatalf("duplicate: %+v", resp)
	}
	// Gap: refused with the authoritative resume offset.
	if resp := c.applyChunk(frame(12, []byte("cccc"), false)); resp.OK || resp.ResumeOff != 8 {
		t.Fatalf("gap: %+v", resp)
	}
	// Truncate down (torn-tail drop), then append the divergent suffix.
	if resp := c.applyChunk(frame(6, nil, true)); !resp.OK || resp.ResumeOff != 6 {
		t.Fatalf("truncate: %+v", resp)
	}
	// Truncate beyond the mirror: refused.
	if resp := c.applyChunk(frame(100, nil, true)); resp.OK || resp.ResumeOff != 6 {
		t.Fatalf("truncate past end: %+v", resp)
	}
	if resp := c.applyChunk(frame(6, []byte("dd"), false)); !resp.OK || resp.ResumeOff != 8 {
		t.Fatalf("post-truncate append: %+v", resp)
	}
	got, err := os.ReadFile(filepath.Join(dir, shard.ShardDirName(0), filepath.FromSlash(path)))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "aaaabbdd" {
		t.Fatalf("mirror = %q, want aaaabbdd", got)
	}
}

// TestRegisterRefusesProtocolV1 pins the version bump that came with
// v2-only journals: a worker built before it reads a shard manifest
// without a journal field as v1 and would write unit journals a
// replacement worker cannot resume, so the coordinator must refuse its
// registration outright.
func TestRegisterRefusesProtocolV1(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sweep")
	buildSweep(t, dir, 2, 1)
	c, err := NewCoordinator(dir, CoordinatorOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	env := HostEnv()
	fp, _ := Fingerprint(env)
	client := &http.Client{Timeout: 2 * time.Second}
	var reg RegisterResponse
	err = postJSON(client, c.URL()+PathRegister, RegisterRequest{
		Protocol: 1, Addr: "http://127.0.0.1:9", Hostname: "old", Env: env, EnvFingerprint: fp,
	}, &reg)
	if err == nil || !strings.Contains(err.Error(), "protocol v1") {
		t.Fatalf("protocol-1 registration: err = %v, want a protocol refusal", err)
	}
	if reg.WorkerID != "" {
		t.Fatalf("protocol-1 worker was assigned id %q", reg.WorkerID)
	}
}

func TestChunkFrameValidate(t *testing.T) {
	good := ChunkFrame{Shard: 0, Attempt: 1, Path: "units/u0/journal.jsonl",
		Data: []byte("x"), CRC: crc32.ChecksumIEEE([]byte("x"))}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid frame refused: %v", err)
	}
	for name, f := range map[string]ChunkFrame{
		"corrupt CRC":    {Attempt: 1, Path: "units/u0/journal.jsonl", Data: []byte("x"), CRC: 1},
		"traversal":      {Attempt: 1, Path: "../../etc/passwd", CRC: 0},
		"absolute":       {Attempt: 1, Path: "/etc/passwd", CRC: 0},
		"wrong file":     {Attempt: 1, Path: "units/u0/done.json", CRC: 0},
		"deep path":      {Attempt: 1, Path: "units/u0/x/journal.jsonl", CRC: 0},
		"negative off":   {Attempt: 1, Path: "units/u0/journal.jsonl", Off: -1, CRC: 0},
		"zero attempt":   {Attempt: 0, Path: "units/u0/journal.jsonl", CRC: 0},
		"trunc armed":    {Attempt: 1, Path: "units/u0/journal.jsonl", Truncate: true, Data: []byte("x"), CRC: crc32.ChecksumIEEE([]byte("x"))},
		"dotted unit":    {Attempt: 1, Path: "units/../journal.jsonl", CRC: 0},
		"oversize chunk": {Attempt: 1, Path: "units/u0/journal.jsonl", Data: make([]byte, MaxChunk+1), CRC: crc32.ChecksumIEEE(make([]byte, MaxChunk+1))},
	} {
		if err := f.Validate(); err == nil {
			t.Errorf("%s: frame accepted", name)
		}
	}
}

func TestSeededBackoffDeterministic(t *testing.T) {
	a := SeededBackoff(7, "assign/0/2", 3, 50*time.Millisecond, 5*time.Second)
	b := SeededBackoff(7, "assign/0/2", 3, 50*time.Millisecond, 5*time.Second)
	if a != b {
		t.Fatalf("same inputs, different backoff: %s vs %s", a, b)
	}
	if c := SeededBackoff(8, "assign/0/2", 3, 50*time.Millisecond, 5*time.Second); c == a {
		t.Error("different seeds produced identical jitter (suspicious)")
	}
	base := 200 * time.Millisecond // try 3 → base 50ms<<2
	if a < base || a >= base+base/2 {
		t.Errorf("backoff %s outside [%s, %s)", a, base, base+base/2)
	}
	if got := SeededBackoff(7, "x", 50, 50*time.Millisecond, time.Second); got >= 1500*time.Millisecond {
		t.Errorf("ceiling not applied: %s", got)
	}
}

func TestFaultTransportDeterministic(t *testing.T) {
	decisions := func() []bool {
		ft := NewFaultTransport(99, nil)
		ft.DropProb = 0.5
		var out []bool
		for i := 0; i < 64; i++ {
			out = append(out, ft.draw() < ft.DropProb)
		}
		return out
	}
	a, b := decisions(), decisions()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across same-seed runs", i)
		}
	}
}

// TestRemoteShipmentV2ByteIdentity runs a sweep's chunked binary v2
// unit journals through the full remote transport: the worker's
// truncate floors (campaign.ValidPrefix) and the coordinator's
// byte-oriented chunk ingestion must carry them unchanged, the mirrored
// unit journals must replay as clean v2, and the merged report must be
// byte-identical to the single-process reference.
func TestRemoteShipmentV2ByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("drives wall-clock supervision loops")
	}
	const k = 4
	ref := referenceReport(t, k, testRunner{})

	dir := filepath.Join(t.TempDir(), "sweep")
	sw := buildSweep(t, dir, k, 2)
	c, err := NewCoordinator(dir, CoordinatorOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w, err := StartWorker(WorkerOptions{
		Coordinator:  c.URL(),
		Hostname:     "host-a",
		WorkDir:      filepath.Join(t.TempDir(), "w0"),
		Runner:       testRunner{},
		Heartbeat:    50 * time.Millisecond,
		ShipInterval: 25 * time.Millisecond,
		Seed:         100,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := c.WaitForWorkers(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	statuses, err := shard.Supervise(context.Background(), dir, c.StartFunc(), shard.Options{
		HeartbeatTimeout: 3 * time.Second,
		Retries:          2,
		Backoff:          50 * time.Millisecond,
		Seed:             11,
	})
	if err != nil {
		t.Fatalf("supervise: %v", err)
	}
	for _, st := range statuses {
		if st.Lost {
			t.Fatalf("shard %d lost: %+v", st.Shard, st)
		}
	}
	if got := mergedReport(t, dir); !bytes.Equal(got, ref) {
		t.Errorf("remote report differs from single-process run:\n--- ref\n%s\n--- got\n%s", ref, got)
	}
	// The mirrored journals the worker shipped back must be genuine v2
	// bytes that replay clean — proof the byte-oriented transport and
	// the sniffing reader compose.
	for i, m := range sw.Shards() {
		for _, u := range m.Units {
			jp := filepath.Join(shard.UnitDir(filepath.Join(dir, shard.ShardDirName(i)), u.ID), campaign.JournalFile)
			data, err := os.ReadFile(jp)
			if err != nil {
				t.Fatal(err)
			}
			if campaign.SniffFormat(data) != campaign.FormatV2 {
				t.Fatalf("mirrored journal %s is not v2", u.ID)
			}
			if campaign.ValidPrefix(data) != int64(len(data)) {
				t.Fatalf("mirrored journal %s has a torn tail after clean completion", u.ID)
			}
		}
	}
}

// TestShipPassManifestBeforeJournal cuts a ship pass after each of its
// files in turn (the link dies there) and checks the mirror never holds
// a unit journal without its manifest. A reassigned executor seeded from
// such a mirror finds no campaign, tries to create one, and fails
// because the journal file already exists.
func TestShipPassManifestBeforeJournal(t *testing.T) {
	local := filepath.Join(t.TempDir(), "local")
	sw := buildSweep(t, local, 2, 1)
	shardDir := filepath.Join(local, shard.ShardDirName(0))
	if _, err := shard.ExecShard(context.Background(), shardDir, testRunner{}, shard.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	units := sw.Shards()[0].Units
	for cutAfter := 1; cutAfter <= 3*len(units); cutAfter++ {
		mirror := t.TempDir()
		c := &Coordinator{sweepDir: mirror}
		var files []string
		srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			var f ChunkFrame
			if !readBody(rw, r, &f) {
				return
			}
			if len(files) == 0 || files[len(files)-1] != f.Path {
				files = append(files, f.Path)
			}
			if len(files) > cutAfter {
				http.Error(rw, "link down", http.StatusServiceUnavailable)
				return
			}
			writeJSONResp(rw, c.applyChunk(f))
		}))
		w := &Worker{id: "w000", client: srv.Client(), opt: WorkerOptions{Coordinator: srv.URL}}
		sh := &shipper{w: w, j: &job{dir: shardDir, attempt: 1}, shipped: map[string]int64{}, floors: map[string]int64{}}
		if sh.shipPass(context.Background()) {
			t.Fatal("ship pass fenced")
		}
		srv.Close()
		for _, u := range units {
			ud := shard.UnitDir(filepath.Join(mirror, shard.ShardDirName(0)), u.ID)
			_, jerr := os.Stat(filepath.Join(ud, campaign.JournalFile))
			_, merr := os.Stat(filepath.Join(ud, campaign.ManifestFile))
			if jerr == nil && merr != nil {
				t.Fatalf("pass cut after %d files (sent %v): mirror holds %s's journal without its manifest",
					cutAfter, files, u.ID)
			}
		}
	}
}
