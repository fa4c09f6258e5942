package main

import (
	"bytes"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	scibench "repro"
)

// v2Args is the fixed configuration of the v2 durability test: enough
// samples that the chunked journal seals several 64-record chunks
// mid-campaign, paced so a SIGKILL lands between seals.
func v2Args(dir string, extra ...string) []string {
	base := []string{"-system", "daint", "-samples", "200", "-relerr", "0.0001",
		"-seed", "17", "-throttle", "5ms", "-dir", dir}
	return append(base, extra...)
}

// TestCampaignWritesV2Journal pins the journal every campaign writes:
// with no flag at all, the journal starts with the v2 format header.
func TestCampaignWritesV2Journal(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real processes")
	}
	camp := filepath.Join(t.TempDir(), "camp")
	out, err := exec.Command(binPath, "campaign", "-dir", camp,
		"-samples", "12", "-relerr", "0.5", "-seed", "3").CombinedOutput()
	if c := exitCode(t, err); c != 0 {
		t.Fatalf("campaign exited %d; output:\n%s", c, out)
	}
	data, err := os.ReadFile(filepath.Join(camp, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("SCIBJv2\n")) {
		t.Fatalf("journal starts with %q, want the v2 header", data[:min(len(data), 16)])
	}
}

// TestCampaignV2SIGKILLResumeByteIdentity drives the v2 journal's crash
// story against the real binary: SIGKILL a campaign after at least one
// chunk has sealed (losing the unsealed tail — the format's durability
// trade), resume it from the sealed prefix, and require the final
// analysis byte-identical to an uninterrupted run of the same
// configuration. Converting the completed v2 campaign is a no-op.
func TestCampaignV2SIGKILLResumeByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real processes with wall-clock pacing")
	}

	// Reference: an uninterrupted run. Same basename as the victim, so
	// the manifests (and therefore the reports) describe the same
	// campaign.
	ref := filepath.Join(t.TempDir(), "camp")
	refOut, err := exec.Command(binPath, append([]string{"campaign"}, v2Args(ref)...)...).CombinedOutput()
	if c := exitCode(t, err); c != 0 {
		t.Fatalf("reference campaign exited %d; output:\n%s", c, refOut)
	}
	want := resultLine(t, string(refOut))
	if _, st, err := scibench.LoadCampaign(ref); err != nil || st.Format.String() != "v2" {
		t.Fatalf("reference campaign journal: format=%v err=%v, want v2", st.Format, err)
	}

	// The victim: SIGKILL once the journal has grown past the 8-byte
	// header, i.e. at least one CRC-framed chunk is durable.
	camp := filepath.Join(t.TempDir(), "camp")
	victim := exec.Command(binPath, append([]string{"campaign"}, v2Args(camp)...)...)
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(camp, "journal.jsonl")
	deadline := time.Now().Add(20 * time.Second)
	for {
		if fi, err := os.Stat(journal); err == nil && fi.Size() > 8 {
			break
		}
		if time.Now().After(deadline) {
			victim.Process.Kill()
			t.Fatal("v2 journal never sealed a chunk")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = victim.Wait()

	// The sealed prefix must load as a valid v2 campaign.
	_, st, err := scibench.LoadCampaign(camp)
	if err != nil {
		t.Fatalf("killed v2 campaign not loadable: %v", err)
	}
	if st.Format.String() != "v2" {
		t.Fatalf("killed campaign format = %v, want v2", st.Format)
	}
	if len(st.Records) == 0 {
		t.Fatal("no records recovered from the sealed chunks")
	}

	resumed, err := exec.Command(binPath, "resume", camp).CombinedOutput()
	if c := exitCode(t, err); c != 0 {
		t.Fatalf("resume exited %d; output:\n%s", c, resumed)
	}
	if !strings.Contains(string(resumed), "recovered") {
		t.Errorf("resume did not report recovery:\n%s", resumed)
	}
	if got := resultLine(t, string(resumed)); got != want {
		t.Errorf("resumed v2 analysis differs:\n  want: %s\n  got:  %s", want, got)
	}

	// convert only upgrades v1: on the completed v2 campaign it is a
	// verified no-op.
	size := fileSize(t, journal)
	out, err := exec.Command(binPath, "convert", camp).CombinedOutput()
	if c := exitCode(t, err); c != 0 || !strings.Contains(string(out), "nothing to do") {
		t.Fatalf("idempotent convert exited %d:\n%s", c, out)
	}
	if got := fileSize(t, journal); got != size {
		t.Errorf("no-op convert changed the journal: %d → %d B", size, got)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestShardedCampaignV2ByteIdentity: `scibench campaign -shards N`
// must produce a merged report byte-identical to a rerun, with every
// unit journal chunked binary v2.
func TestShardedCampaignV2ByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real processes with wall-clock pacing")
	}
	sweepArgs := func(dir string, extra ...string) []string {
		base := []string{"-dir", dir, "-units", "3", "-samples", "25",
			"-relerr", "0.0001", "-seed", "9", "-shards", "2"}
		return append(base, extra...)
	}
	refDir := filepath.Join(t.TempDir(), "sweep")
	ref, err := exec.Command(binPath,
		append([]string{"campaign"}, sweepArgs(refDir)...)...).Output()
	if err != nil {
		t.Fatalf("reference sharded campaign: %v", err)
	}
	dir := filepath.Join(t.TempDir(), "sweep")
	got, err := exec.Command(binPath,
		append([]string{"campaign"}, sweepArgs(dir)...)...).Output()
	if err != nil {
		t.Fatalf("sharded campaign: %v", err)
	}
	if string(got) != string(ref) {
		t.Errorf("sharded report differs across reruns:\n--- ref\n%s\n--- got\n%s", ref, got)
	}
	// Every unit journal must really be v2.
	units, err := filepath.Glob(filepath.Join(dir, "shard-*", "units", "*", "journal.jsonl"))
	if err != nil || len(units) == 0 {
		t.Fatalf("no unit journals found: %v", err)
	}
	for _, j := range units {
		_, st, err := scibench.LoadCampaign(filepath.Dir(j))
		if err != nil {
			t.Fatalf("unit %s: %v", j, err)
		}
		if st.Format.String() != "v2" {
			t.Errorf("unit %s journal format = %v, want v2", j, st.Format)
		}
	}
}

// copyTree copies the fixture directory src to dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestV1CampaignFixtureCompat runs the read-only v1 story against
// fixtures a v1-writing scibench left behind (testdata/v1): camp is a
// campaign SIGINTed after 25 journal records, sweep a finished
// single-shard sweep. The v1 campaign loads; resume drops a torn tail
// but refuses to append to v1, naming `scibench convert`; after
// convert, resume completes with the result line of an uninterrupted
// run of the same seed. The v1 sweep merges to the report a fresh
// sweep of the same configuration prints.
func TestV1CampaignFixtureCompat(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real processes with wall-clock pacing")
	}
	camp := filepath.Join(t.TempDir(), "camp")
	copyTree(t, filepath.Join("testdata", "v1", "camp"), camp)
	_, st, err := scibench.LoadCampaign(camp)
	if err != nil {
		t.Fatalf("v1 fixture not loadable: %v", err)
	}
	if st.Format.String() != "v1" || st.Torn || len(st.Records) != 25 {
		t.Fatalf("v1 fixture: format=%v torn=%v records=%d, want clean v1 with 25",
			st.Format, st.Torn, len(st.Records))
	}

	// A crash mid-append of the v1 writer: a torn half line at the tail.
	journal := filepath.Join(camp, "journal.jsonl")
	clean, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte(nil), clean...), `{"crc":1,"rec":{"seq":`...)
	if err := os.WriteFile(journal, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	refused, err := exec.Command(binPath, "resume", camp).CombinedOutput()
	if c := exitCode(t, err); c != 1 {
		t.Fatalf("resume of a v1 journal exited %d, want 1; output:\n%s", c, refused)
	}
	if !strings.Contains(string(refused), "v1") || !strings.Contains(string(refused), "scibench convert "+camp) {
		t.Errorf("refusal does not name the v1 journal and the convert command:\n%s", refused)
	}
	if got, err := os.ReadFile(journal); err != nil || !bytes.Equal(got, clean) {
		t.Fatalf("refused resume left %d journal bytes (err %v), want the %d-byte v1 prefix", len(got), err, len(clean))
	}

	out, err := exec.Command(binPath, "convert", camp).CombinedOutput()
	if c := exitCode(t, err); c != 0 || !strings.Contains(string(out), "converted v1 → v2") {
		t.Fatalf("convert exited %d:\n%s", c, out)
	}
	resumed, err := exec.Command(binPath, "resume", camp).CombinedOutput()
	if c := exitCode(t, err); c != 0 {
		t.Fatalf("resume after convert exited %d; output:\n%s", c, resumed)
	}
	ref := filepath.Join(t.TempDir(), "camp")
	refOut, err := exec.Command(binPath, "campaign", "-dir", ref, "-system", "daint", "-samples", "40",
		"-relerr", "0.0001", "-seed", "11", "-throttle", "20ms").CombinedOutput()
	if c := exitCode(t, err); c != 0 {
		t.Fatalf("reference campaign exited %d; output:\n%s", c, refOut)
	}
	if got, want := resultLine(t, string(resumed)), resultLine(t, string(refOut)); got != want {
		t.Errorf("converted v1 campaign resumed to a different analysis:\n  got:  %s\n  want: %s", got, want)
	}

	sweep := filepath.Join(t.TempDir(), "sweep")
	copyTree(t, filepath.Join("testdata", "v1", "sweep"), sweep)
	merged, err := exec.Command(binPath, "merge", "-dir", sweep).Output()
	if err != nil {
		t.Fatalf("merge of the v1 sweep: %v", err)
	}
	fresh, err := exec.Command(binPath, "campaign", "-shards", "1", "-dir", filepath.Join(t.TempDir(), "sweep"),
		"-units", "2", "-samples", "20", "-relerr", "0.0001", "-seed", "9").Output()
	if err != nil {
		t.Fatalf("fresh sweep: %v", err)
	}
	if !bytes.Equal(merged, fresh) {
		t.Errorf("v1 sweep merged to a different report:\n--- v1\n%s\n--- fresh\n%s", merged, fresh)
	}
}
