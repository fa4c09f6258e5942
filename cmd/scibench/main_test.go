package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	scibench "repro"
)

// binPath is the scibench binary built once in TestMain; the campaign
// integration tests drive it as a real process so signal delivery and
// exit codes are tested end to end.
var binPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "scibench-bin")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binPath = filepath.Join(dir, "scibench")
	if out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building scibench: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// campaignArgs is the one fixed configuration every stage of the
// integration test shares; any drift between stages would (correctly)
// be refused. The sample budget spans several 64-record journal chunks,
// so a chunk seals well before collection ends.
func campaignArgs(dir string) []string {
	return []string{"-system", "daint", "-samples", "150", "-relerr", "0.0001",
		"-seed", "11", "-throttle", "10ms", "-dir", dir}
}

// resultLine extracts the final "result: ..." analysis line.
func resultLine(t *testing.T, out string) string {
	t.Helper()
	line := ""
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "result:") {
			line = l
		}
	}
	if line == "" {
		t.Fatalf("no result line in output:\n%s", out)
	}
	return line
}

func exitCode(t *testing.T, err error) int {
	t.Helper()
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("process did not exit normally: %v", err)
	}
	return ee.ExitCode()
}

// TestCampaignInterruptResume drives the full durability story against
// the real binary: SIGINT a running campaign, verify the checkpoint,
// refuse a drifted resume, corrupt the journal tail as a crash
// mid-append would, resume anyway, and check the final analysis is
// identical to an uninterrupted campaign with the same seed.
func TestCampaignInterruptResume(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real processes with wall-clock pacing")
	}
	camp := filepath.Join(t.TempDir(), "camp")

	// Stage 1: start a throttled campaign and SIGINT it mid-collection.
	var out strings.Builder
	cmd := exec.Command(binPath, append([]string{"campaign"}, campaignArgs(camp)...)...)
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(camp, "journal.jsonl")
	deadline := time.Now().Add(15 * time.Second)
	for {
		if fi, err := os.Stat(journal); err == nil && fi.Size() > 8 {
			break // a chunk past the 8-byte header is durable; interrupt mid-flight
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("journal never grew; output:\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	if c := exitCode(t, err); c != 3 {
		t.Fatalf("interrupted campaign exited %d, want 3; output:\n%s", c, out.String())
	}
	if !strings.Contains(out.String(), "interrupted") {
		t.Errorf("no interruption notice in output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "scibench resume") {
		t.Errorf("no resume hint in output:\n%s", out.String())
	}

	// The checkpoint must be a loadable campaign with verified records.
	man, st, err := scibench.LoadCampaign(camp)
	if err != nil {
		t.Fatalf("interrupted campaign not loadable: %v", err)
	}
	if man.Seed != 11 {
		t.Errorf("manifest seed = %d, want 11", man.Seed)
	}
	if len(st.Records) == 0 {
		t.Fatal("no records recovered from the interrupted journal")
	}
	if st.Torn {
		t.Error("journal torn after a clean SIGINT checkpoint")
	}

	// Stage 2: a resume whose flags drift from the recorded setup is
	// refused with Rule 9 findings and a nonzero exit.
	drifted, err := exec.Command(binPath, "resume", "-seed", "12", camp).CombinedOutput()
	if c := exitCode(t, err); c != 1 {
		t.Fatalf("drifted resume exited %d, want 1; output:\n%s", c, drifted)
	}
	if !strings.Contains(string(drifted), "REFUSED") {
		t.Errorf("drifted resume not refused:\n%s", drifted)
	}
	if !strings.Contains(string(drifted), "seed") {
		t.Errorf("refusal does not name the drifted field:\n%s", drifted)
	}

	// Stage 3: simulate a crash mid-append on top of the checkpoint —
	// a torn chunk at the tail, whose length prefix promises 64 payload
	// bytes of which only three landed.
	f, err := os.OpenFile(journal, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{64, 1, 64, 0}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Stage 4: the real resume drops the torn tail and completes.
	resumed, err := exec.Command(binPath, "resume", camp).CombinedOutput()
	if c := exitCode(t, err); c != 0 {
		t.Fatalf("resume exited %d, want 0; output:\n%s", c, resumed)
	}
	if !strings.Contains(string(resumed), "torn tail") {
		t.Errorf("resume did not report the torn tail:\n%s", resumed)
	}
	if !strings.Contains(string(resumed), "recovered") {
		t.Errorf("resume did not report recovery:\n%s", resumed)
	}

	// Stage 5: an uninterrupted campaign with the same seed must land on
	// the exact same analysis (bit-identical retained samples).
	clean := filepath.Join(t.TempDir(), "clean")
	cleanOut, err := exec.Command(binPath, append([]string{"campaign"}, campaignArgs(clean)...)...).CombinedOutput()
	if c := exitCode(t, err); c != 0 {
		t.Fatalf("clean campaign exited %d; output:\n%s", c, cleanOut)
	}
	got := resultLine(t, string(resumed))
	want := resultLine(t, string(cleanOut))
	if got != want {
		t.Errorf("resumed analysis differs from uninterrupted run:\n  resumed: %s\n  clean:   %s", got, want)
	}
}

// TestShardedCampaignSIGKILLByteIdentity drives the distributed flow
// against the real binary: build a 2-shard sweep with `scibench shard`,
// SIGKILL one executor mid-unit (the crash a scheduler preemption or
// OOM kill delivers), re-run it as a reassignment attempt that resumes
// from the journal, merge — and require the merged report byte-equal to
// the report of `scibench campaign -shards 1` over the same sweep.
func TestShardedCampaignSIGKILLByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real processes with wall-clock pacing")
	}
	sweepArgs := func(dir string) []string {
		return []string{"-dir", dir, "-units", "4", "-samples", "30",
			"-relerr", "0.0001", "-seed", "5", "-throttle", "20ms"}
	}

	// Reference: the whole sweep in one supervised executor. The sweep
	// directory basename must match (it names the sweep in the report).
	refDir := filepath.Join(t.TempDir(), "sweep")
	ref, err := exec.Command(binPath,
		append([]string{"campaign", "-shards", "1"}, sweepArgs(refDir)...)...).Output()
	if err != nil {
		t.Fatalf("single-executor campaign: %v", err)
	}

	// Distributed: build the sweep, then run the two shards by hand.
	dir := filepath.Join(t.TempDir(), "sweep")
	if out, err := exec.Command(binPath,
		append([]string{"shard", "-shards", "2"}, sweepArgs(dir)...)...).CombinedOutput(); err != nil {
		t.Fatalf("scibench shard: %v\n%s", err, out)
	}

	// Start executor 0 and SIGKILL it once its first unit has journaled
	// a few durable records — mid-unit, mid-journal.
	shard0 := filepath.Join(dir, "shard-000")
	victim := exec.Command(binPath, "exec", shard0)
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(shard0, "units", "u000-seed-5", "journal.jsonl")
	deadline := time.Now().Add(15 * time.Second)
	for {
		if fi, err := os.Stat(journal); err == nil && fi.Size() > 300 {
			break
		}
		if time.Now().After(deadline) {
			victim.Process.Kill()
			t.Fatal("executor 0 never journaled a record")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = victim.Wait()

	// Reassignment: attempt 2 resumes the torn unit from its journal and
	// finishes the shard; executor 1 runs clean.
	if out, err := exec.Command(binPath, "exec", "-attempt", "2", shard0).CombinedOutput(); err != nil {
		t.Fatalf("reassigned executor: %v\n%s", err, out)
	}
	if out, err := exec.Command(binPath, "exec", filepath.Join(dir, "shard-001")).CombinedOutput(); err != nil {
		t.Fatalf("executor 1: %v\n%s", err, out)
	}

	got, err := exec.Command(binPath, "merge", "-dir", dir).Output()
	if err != nil {
		t.Fatalf("scibench merge: %v", err)
	}
	if string(got) != string(ref) {
		t.Errorf("merged report after SIGKILL differs from single-executor run:\n--- ref\n%s\n--- got\n%s", ref, got)
	}
	if _, err := os.Stat(filepath.Join(dir, "merged.json")); err != nil {
		t.Errorf("merge recorded no merged.json: %v", err)
	}
}

// TestRemoteCampaignWorkerLossByteIdentity drives the cross-machine
// flow end to end with real processes: a coordinator campaign over two
// worker agents on loopback (one with injected drops and duplication on
// its link), one worker SIGKILLed mid-sweep so its shard stalls, is
// fenced, and is reassigned to the survivor — and the merged report
// must still be byte-identical to the single-process run.
func TestRemoteCampaignWorkerLossByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real processes with wall-clock pacing")
	}
	sweepArgs := func(dir string) []string {
		return []string{"-dir", dir, "-units", "4", "-samples", "30",
			"-relerr", "0.0001", "-seed", "5", "-throttle", "20ms"}
	}
	refDir := filepath.Join(t.TempDir(), "sweep")
	ref, err := exec.Command(binPath,
		append([]string{"campaign", "-shards", "1"}, sweepArgs(refDir)...)...).Output()
	if err != nil {
		t.Fatalf("single-executor campaign: %v", err)
	}

	dir := filepath.Join(t.TempDir(), "sweep")
	var coordOut strings.Builder
	coord := exec.Command(binPath, append([]string{"campaign", "-shards", "2",
		"-remote", "127.0.0.1:0", "-min-workers", "2", "-heartbeat-timeout", "2s"},
		sweepArgs(dir)...)...)
	coord.Stdout = &coordOut
	stderr, err := coord.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	defer coord.Process.Kill()

	// The coordinator picks a free port; read it off its stderr banner.
	urlCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "coordinator on http://"); i >= 0 {
				urlCh <- strings.Fields(line[i+len("coordinator on "):])[0]
			}
			fmt.Fprintln(os.Stderr, "coord:", line)
		}
	}()
	var coordURL string
	select {
	case coordURL = <-urlCh:
	case <-time.After(15 * time.Second):
		t.Fatal("coordinator never printed its address")
	}

	worker := func(name string, chaos ...string) *exec.Cmd {
		args := append([]string{"worker", "-coordinator", coordURL,
			"-work", filepath.Join(t.TempDir(), name)}, chaos...)
		w := exec.Command(binPath, args...)
		w.Stderr = os.Stderr
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		return w
	}
	victim := worker("wa")
	defer victim.Process.Kill()
	survivor := worker("wb", "-fault-drop", "0.05", "-fault-dup", "0.08", "-fault-seed", "13")
	defer survivor.Process.Kill()

	// SIGKILL the first worker once the mirror shows both shards are
	// mid-flight (each worker holds one shard; whichever the victim held
	// must stall, be fenced, and land on the survivor).
	deadline := time.Now().Add(30 * time.Second)
	for {
		n := 0
		for _, sh := range []string{"shard-000", "shard-001"} {
			if fi, err := os.Stat(filepath.Join(dir, sh, "heartbeat.json")); err == nil && fi.Size() > 0 {
				n++
			}
		}
		if n == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shards never started shipping heartbeats")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = victim.Wait()

	if err := coord.Wait(); err != nil {
		t.Fatalf("remote campaign failed: %v\n%s", err, coordOut.String())
	}
	if coordOut.String() != string(ref) {
		t.Errorf("remote merged report differs from single-process run:\n--- ref\n%s\n--- got\n%s",
			ref, coordOut.String())
	}
	// Both shards carry host provenance; the reassigned one completed on
	// a later attempt.
	reassigned := false
	for _, sh := range []string{"shard-000", "shard-001"} {
		var done struct{ Attempt int }
		raw, err := os.ReadFile(filepath.Join(dir, sh, "done.json"))
		if err != nil {
			t.Fatalf("%s: %v", sh, err)
		}
		if err := json.Unmarshal(raw, &done); err != nil {
			t.Fatal(err)
		}
		if done.Attempt > 1 {
			reassigned = true
		}
		if _, err := os.Stat(filepath.Join(dir, sh, "host.json")); err != nil {
			t.Errorf("%s: no host record: %v", sh, err)
		}
	}
	if !reassigned {
		t.Error("no shard was reassigned — the kill landed after the sweep finished; lower the pacing")
	}
}

// TestCampaignRefusesExistingDir covers the Create guard end to end.
func TestCampaignRefusesExistingDir(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real processes")
	}
	camp := filepath.Join(t.TempDir(), "camp")
	args := []string{"campaign", "-dir", camp, "-samples", "12", "-relerr", "0.5", "-seed", "3"}
	if out, err := exec.Command(binPath, args...).CombinedOutput(); err != nil {
		t.Fatalf("first campaign failed: %v\n%s", err, out)
	}
	out, err := exec.Command(binPath, args...).CombinedOutput()
	if exitCode(t, err) == 0 {
		t.Fatalf("second campaign in the same directory must fail:\n%s", out)
	}
	if !strings.Contains(string(out), "already holds a campaign") {
		t.Errorf("unexpected refusal message:\n%s", out)
	}
}

// TestCampaignRefusalKeepsConfig: a differently-flagged second campaign
// in a directory that already holds one is refused before it touches
// the recorded config.json, so the first campaign still resumes.
func TestCampaignRefusalKeepsConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real processes")
	}
	camp := filepath.Join(t.TempDir(), "camp")
	first := append([]string{"campaign", "-budget", "300ms"}, campaignArgs(camp)...)
	if out, err := exec.Command(binPath, first...).CombinedOutput(); exitCode(t, err) != 3 {
		t.Fatalf("first campaign should be interrupted by its budget (exit 3): %v\n%s", err, out)
	}
	cfgPath := filepath.Join(camp, "config.json")
	before, err := os.ReadFile(cfgPath)
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(binPath, "campaign", "-dir", camp, "-samples", "40").CombinedOutput()
	if exitCode(t, err) == 0 {
		t.Fatalf("second campaign in the same directory must fail:\n%s", out)
	}
	after, err := os.ReadFile(cfgPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("refused campaign rewrote config.json:\nbefore %s\nafter  %s", before, after)
	}
	if out, err := exec.Command(binPath, "resume", camp).CombinedOutput(); err != nil {
		t.Fatalf("first campaign no longer resumes: %v\n%s", err, out)
	}
}
