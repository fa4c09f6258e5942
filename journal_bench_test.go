// Benchmarks of the campaign journal: append throughput (the
// per-observation durability cost a campaign pays) and replay
// throughput (the recovery/merge cost). Journals are written as
// chunked delta-encoded columns with one fsync per 64-record chunk —
// the group-commit amortization is the point, so the append benchmark
// runs with every seal fsynced, as campaigns do. Replay is measured for
// both on-disk encodings, since finished v1 JSONL journals still load.
package scibench_test

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/rules"
)

// benchManifest is a minimal valid manifest for journal benchmarks.
func benchManifest(b *testing.B) campaign.Manifest {
	b.Helper()
	m, err := campaign.NewManifest("bench", 1, map[string]int{"samples": 1}, nil,
		rules.Environment{})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// benchEvent is the steady-state record shape: monotone sample values
// with occasional retries, matching a real collection stream.
func benchEvent(i int) bench.Event {
	if i%50 == 49 {
		return bench.Event{Kind: bench.EventRetry}
	}
	return bench.Event{
		Kind:  bench.EventSample,
		Value: 1800.0 + float64(i%17)*0.25,
		Calls: 1,
	}
}

// BenchmarkJournalAppendV2 is the chunked group-commit append path.
func BenchmarkJournalAppendV2(b *testing.B) {
	dir := b.TempDir()
	j, err := campaign.Create(dir, benchManifest(b))
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.Record(benchEvent(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := j.Flush(); err != nil {
		b.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, campaign.JournalFile)); err == nil && b.N > 0 {
		b.ReportMetric(float64(fi.Size())/float64(b.N), "bytes/record")
	}
}

const replayRecords = 4096

func benchmarkJournalReplay(b *testing.B, data []byte) {
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := campaign.Replay(data)
		if len(st.Records) != replayRecords || st.Torn {
			b.Fatalf("replay: %d records, torn=%v", len(st.Records), st.Torn)
		}
	}
}

// BenchmarkJournalReplayV1 replays a 4096-record v1 JSONL journal,
// built by a test-only encoder of the read-only layout (one
// CRC32-framed JSON record per line).
func BenchmarkJournalReplayV1(b *testing.B) {
	var data []byte
	for i := 0; i < replayRecords; i++ {
		rb, err := json.Marshal(campaign.Record{Seq: i + 1, Event: benchEvent(i)})
		if err != nil {
			b.Fatal(err)
		}
		data = fmt.Appendf(data, "{\"crc\":%d,\"rec\":%s}\n", crc32.ChecksumIEEE(rb), rb)
	}
	benchmarkJournalReplay(b, data)
}

// BenchmarkJournalReplayV2 replays the same stream as chunked binary.
func BenchmarkJournalReplayV2(b *testing.B) {
	dir := b.TempDir()
	j, err := campaign.Create(dir, benchManifest(b))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < replayRecords; i++ {
		if err := j.Record(benchEvent(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		b.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, campaign.JournalFile))
	if err != nil {
		b.Fatal(err)
	}
	benchmarkJournalReplay(b, data)
}
