package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/colenc"
)

func v2Options(flushEvery int) JournalOptions {
	return JournalOptions{FlushEvery: flushEvery}
}

// encodeV1 is a test-only v1 JSONL encoder: one CRC32-framed JSON
// record per line, the bytes the retired v1 writer appended. The
// package only reads v1, so tests of that reader build their input
// here.
func encodeV1(tb testing.TB, recs []Record) []byte {
	tb.Helper()
	var out []byte
	for _, r := range recs {
		rb, err := json.Marshal(r)
		if err != nil {
			tb.Fatal(err)
		}
		lb, err := json.Marshal(frame{CRC: crc32.ChecksumIEEE(rb), Rec: rb})
		if err != nil {
			tb.Fatal(err)
		}
		out = append(append(out, lb...), '\n')
	}
	return out
}

// numbered wraps evs as densely numbered records.
func numbered(evs []bench.Event) []Record {
	recs := make([]Record, len(evs))
	for i, ev := range evs {
		recs[i] = Record{Seq: i + 1, Event: ev}
	}
	return recs
}

// rewriteAsV1 replaces the campaign journal in dir with the v1 encoding
// of its verified records: the journal a v1 writer would have left at
// the same point.
func rewriteAsV1(t *testing.T, dir string) {
	t.Helper()
	_, st, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, JournalFile), encodeV1(t, st.Records), 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeV1Journal creates a campaign whose journal holds evs in v1.
func writeV1Journal(t *testing.T, evs []bench.Event) string {
	t.Helper()
	dir := writeJournal(t, JournalOptions{}, evs)
	rewriteAsV1(t, dir)
	return dir
}

// journalEvents builds a realistic mixed event stream: warmups, samples
// with slowly-drifting values, retries, a panic, a loss, and one kind
// outside the closed code set (the literal-escape path).
func journalEvents(n int) []bench.Event {
	evs := []bench.Event{
		{Kind: bench.EventWarmup, Calls: 1},
		{Kind: bench.EventWarmup, Calls: 2},
	}
	calls := 2
	for i := 0; i < n; i++ {
		calls++
		switch {
		case i%11 == 5:
			evs = append(evs, bench.Event{Kind: bench.EventRetry, Calls: calls})
		case i%17 == 9:
			evs = append(evs, bench.Event{Kind: bench.EventPanic, Calls: calls})
		case i%23 == 13:
			evs = append(evs, bench.Event{Kind: bench.EventLoss, Calls: calls})
		default:
			evs = append(evs, bench.Event{
				Kind: bench.EventSample, Value: 406.125 + float64(i)*1e-3, Calls: calls})
		}
	}
	evs = append(evs, bench.Event{Kind: "experimental-kind", Value: -1.5, Calls: calls + 1})
	return evs
}

func writeJournal(t *testing.T, opt JournalOptions, evs []bench.Event) string {
	t.Helper()
	dir := t.TempDir()
	j, err := CreateJournal(dir, testManifest(t, 1, testConfig{}, nil), opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if err := j.Record(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestJournalV2RoundTrip(t *testing.T) {
	evs := journalEvents(100)
	for _, flush := range []int{1, 3, 64, 1000} {
		dir := writeJournal(t, v2Options(flush), evs)
		_, st, err := Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		if st.Format != FormatV2 || st.Torn {
			t.Fatalf("flush %d: format=%v torn=%v", flush, st.Format, st.Torn)
		}
		if len(st.Records) != len(evs) {
			t.Fatalf("flush %d: %d records, want %d", flush, len(st.Records), len(evs))
		}
		for i, r := range st.Records {
			if r.Seq != i+1 || r.Event != evs[i] {
				t.Fatalf("flush %d: record %d = %+v, want seq %d event %+v",
					flush, i, r, i+1, evs[i])
			}
		}
	}
}

// TestJournalV2TornAtEveryOffset truncates a v2 journal at every byte
// offset: replay must recover exactly the whole sealed chunks that
// survived, mark the rest torn, and Open must truncate to the verified
// prefix and continue appending a journal that replays clean.
func TestJournalV2TornAtEveryOffset(t *testing.T) {
	evs := journalEvents(40)
	dir := writeJournal(t, v2Options(8), evs)
	data, err := os.ReadFile(filepath.Join(dir, JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	clean := Replay(data)
	if clean.Torn || len(clean.Records) != len(evs) {
		t.Fatalf("setup: torn=%v records=%d", clean.Torn, len(clean.Records))
	}
	// Valid prefixes are the header plus whole-chunk boundaries.
	valid := map[int64]int{int64(len(magicV2)): 0}
	{
		rest := data[len(magicV2):]
		off, n := int64(len(magicV2)), 0
		for len(rest) > 0 {
			payload, sz, ok := colenc.ReadFrame(rest)
			if !ok {
				t.Fatal("setup: torn chunk in clean journal")
			}
			recs, ok := decodeChunkV2(payload, n)
			if !ok {
				t.Fatal("setup: undecodable chunk")
			}
			n += len(recs)
			off += int64(sz)
			valid[off] = n
			rest = rest[sz:]
		}
	}
	for cut := 0; cut <= len(data); cut++ {
		st := Replay(data[:cut])
		wantRecords, atBoundary := valid[st.ValidBytes]
		if !atBoundary && st.ValidBytes != 0 {
			t.Fatalf("cut %d: ValidBytes %d is not a chunk boundary", cut, st.ValidBytes)
		}
		if len(st.Records) != wantRecords {
			t.Fatalf("cut %d: %d records at ValidBytes %d, want %d",
				cut, len(st.Records), st.ValidBytes, wantRecords)
		}
		if st.ValidBytes > int64(cut) {
			t.Fatalf("cut %d: ValidBytes %d beyond data", cut, st.ValidBytes)
		}
		if wantTorn := int64(cut) != st.ValidBytes; st.Torn != wantTorn {
			t.Fatalf("cut %d: torn=%v want %v (ValidBytes %d)", cut, st.Torn, wantTorn, st.ValidBytes)
		}
	}
}

// TestJournalV2BitFlips mirrors the v1 bit-flip test: a flip anywhere
// must never invent records, break dense numbering, or panic.
func TestJournalV2BitFlips(t *testing.T) {
	evs := journalEvents(30)
	dir := writeJournal(t, v2Options(8), evs)
	data, err := os.ReadFile(filepath.Join(dir, JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(data); pos++ {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x10
		st := Replay(mut)
		if len(st.Records) > len(evs) {
			t.Fatalf("pos %d: invented records", pos)
		}
		for i, r := range st.Records {
			if r.Seq != i+1 {
				t.Fatalf("pos %d: non-dense seq %d at %d", pos, r.Seq, i)
			}
		}
	}
}

// TestJournalV2TornHeaderRecovers covers a crash inside CreateJournal
// before the format header reached disk: replay classifies the partial
// magic as a torn v2 header with an empty verified prefix, and Open
// rewrites the header and appends normally.
func TestJournalV2TornHeaderRecovers(t *testing.T) {
	dir := writeJournal(t, v2Options(4), nil)
	path := filepath.Join(dir, JournalFile)
	if err := os.WriteFile(path, magicV2[:3], 0o644); err != nil {
		t.Fatal(err)
	}
	st := Replay(magicV2[:3])
	if st.Format != FormatV2 || !st.Torn || st.ValidBytes != 0 {
		t.Fatalf("torn header replay: %+v", st)
	}
	j, _, _, err := OpenJournal(dir, v2Options(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record(bench.Event{Kind: bench.EventSample, Value: 1, Calls: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Torn || len(got.Records) != 1 || got.Format != FormatV2 {
		t.Fatalf("after recovery: %+v", got)
	}
}

// TestOpenJournalKeepsExistingFormat pins the open contract: a v2
// journal is extended in place; a v1 journal is never appended to or
// rewritten by Open — its torn tail is dropped and Open refuses with
// ErrJournalV1, naming the convert command that upgrades it.
func TestOpenJournalKeepsExistingFormat(t *testing.T) {
	ev := bench.Event{Kind: bench.EventSample, Value: 2.5, Calls: 1}
	ev2 := bench.Event{Kind: bench.EventSample, Value: 2.75, Calls: 2}
	appendOne := func(t *testing.T, dir string) {
		t.Helper()
		j, _, st, err := OpenJournal(dir, v2Options(4))
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Records) != 1 {
			t.Fatalf("records=%d, want 1", len(st.Records))
		}
		if err := j.Record(ev2); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		_, got, err := Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got.Format != FormatV2 || len(got.Records) != 2 || got.Torn {
			t.Fatalf("after append: format=%v records=%d torn=%v",
				got.Format, len(got.Records), got.Torn)
		}
		if got.Records[1].Event != ev2 {
			t.Fatalf("appended record = %+v", got.Records[1].Event)
		}
	}

	t.Run("v1-stays-v1", func(t *testing.T) {
		dir := writeV1Journal(t, []bench.Event{ev})
		path := filepath.Join(dir, JournalFile)
		clean := readFile(t, path)
		torn := append(append([]byte(nil), clean...), `{"crc":1,"rec":{"seq":`...)
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, _, err := OpenJournal(dir, v2Options(4))
		if !errors.Is(err, ErrJournalV1) {
			t.Fatalf("Open(v1) err = %v, want ErrJournalV1", err)
		}
		if !strings.Contains(err.Error(), "scibench convert "+dir) {
			t.Errorf("refusal does not name the convert command: %v", err)
		}
		if got := readFile(t, path); !bytes.Equal(got, clean) {
			t.Fatalf("Open left %d journal bytes, want the %d-byte v1 prefix without its torn tail", len(got), len(clean))
		}
		if _, err := ConvertJournal(dir); err != nil {
			t.Fatalf("convert after the refused open: %v", err)
		}
		appendOne(t, dir)
	})
	t.Run("v2-stays-v2", func(t *testing.T) {
		appendOne(t, writeJournal(t, v2Options(4), []bench.Event{ev}))
	})
}

// TestJournalV2GroupFlush pins the group-commit contract: records below
// the flush width stay pending (nothing but the header on disk), the
// width-th record seals a chunk, and Flush/Close seal a partial tail.
func TestJournalV2GroupFlush(t *testing.T) {
	dir := t.TempDir()
	j, err := CreateJournal(dir, testManifest(t, 1, testConfig{}, nil), v2Options(4))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, JournalFile)
	fileLen := func() int64 {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	for i := 1; i <= 3; i++ {
		if err := j.Record(bench.Event{Kind: bench.EventSample, Value: float64(i), Calls: i}); err != nil {
			t.Fatal(err)
		}
	}
	if n := fileLen(); n != int64(len(magicV2)) {
		t.Fatalf("3 pending records: %d bytes on disk, want bare header (%d)", n, len(magicV2))
	}
	if err := j.Record(bench.Event{Kind: bench.EventSample, Value: 4, Calls: 4}); err != nil {
		t.Fatal(err)
	}
	sealed := fileLen()
	if sealed <= int64(len(magicV2)) {
		t.Fatal("4th record did not seal a chunk")
	}
	if st := Replay(readFile(t, path)); len(st.Records) != 4 || st.Torn {
		t.Fatalf("after seal: records=%d torn=%v", len(st.Records), st.Torn)
	}
	// One more record: pending again, then Flush seals the short chunk.
	if err := j.Record(bench.Event{Kind: bench.EventSample, Value: 5, Calls: 5}); err != nil {
		t.Fatal(err)
	}
	if n := fileLen(); n != sealed {
		t.Fatalf("pending record hit disk early (%d vs %d)", n, sealed)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := Replay(readFile(t, path)); len(st.Records) != 5 || st.Torn {
		t.Fatalf("after Flush: records=%d torn=%v", len(st.Records), st.Torn)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestJournalV2CompressionRatio gates the artifact-size acceptance
// criterion at the format level: a realistic 1000-sample journal must
// be ≥5× smaller in v2 than in v1.
func TestJournalV2CompressionRatio(t *testing.T) {
	evs := journalEvents(1000)
	v1 := encodeV1(t, numbered(evs))
	v2 := readFile(t, filepath.Join(writeJournal(t, v2Options(0), evs), JournalFile))
	if len(v2)*5 > len(v1) {
		t.Fatalf("v2 journal %d bytes vs v1 %d bytes: ratio %.2f < 5",
			len(v2), len(v1), float64(len(v1))/float64(len(v2)))
	}
	t.Logf("1000-sample journal: v1 %d bytes, v2 %d bytes (%.1f×, %.1f bytes/record)",
		len(v1), len(v2), float64(len(v1))/float64(len(v2)), float64(len(v2))/float64(len(evs)))
}

// TestJournalRecordFailureRecovery is the failed-append satellite: an
// injected write or fsync fault mid-seal must leave the journal fully
// recoverable — the torn fragment rewound, the accepted record kept
// pending — so the records appended after the fault clears all replay.
// The "old" subtest reproduces what a writer without the rewind leaves
// on disk (torn fragment mid-file, seq advanced past the failure) and
// proves Replay drops every subsequent record: the torn-tail cascade
// the rewind prevents.
func TestJournalRecordFailureRecovery(t *testing.T) {
	ev := func(i int) bench.Event {
		return bench.Event{Kind: bench.EventSample, Value: float64(i), Calls: i}
	}
	inject := func(t *testing.T, mode string) {
		prevW, prevS := journalWrite, fsyncFile
		t.Cleanup(func() { journalWrite, fsyncFile = prevW, prevS })
		switch mode {
		case "write":
			journalWrite = func(f *os.File, b []byte) (int, error) {
				// A short write is the realistic disk-full shape: some
				// bytes land, then the error.
				n, _ := f.Write(b[:len(b)/2])
				return n, os.ErrDeadlineExceeded
			}
		case "fsync":
			// The bytes land, the fsync fails: the chunk is written but
			// not durable — it must still be rewound, or the retry would
			// write its records a second time.
			fsyncFile = func(f *os.File) error { return os.ErrDeadlineExceeded }
		}
	}
	clear := func() {
		journalWrite = func(f *os.File, b []byte) (int, error) { return f.Write(b) }
		fsyncFile = func(f *os.File) error { return f.Sync() }
	}
	for _, mode := range []string{"write", "fsync"} {
		t.Run("v2/"+mode, func(t *testing.T) {
			dir := t.TempDir()
			// A one-record chunk width makes every Record a seal, so the
			// fault lands on exactly one append.
			j, err := CreateJournal(dir, testManifest(t, 1, testConfig{}, nil), v2Options(1))
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			for i := 1; i <= 2; i++ {
				if err := j.Record(ev(i)); err != nil {
					t.Fatal(err)
				}
			}
			inject(t, mode)
			if err := j.Record(ev(3)); err == nil {
				t.Fatal("faulted append reported success")
			}
			clear()
			// The caller survives the error and appends more records; the
			// accepted record 3 lands with the next seal.
			for i := 4; i <= 5; i++ {
				if err := j.Record(ev(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			_, st, err := Load(dir)
			if err != nil {
				t.Fatal(err)
			}
			if st.Torn || len(st.Records) != 5 {
				t.Fatalf("after recovery: torn=%v records=%d, want 5 clean", st.Torn, len(st.Records))
			}
			for i, r := range st.Records {
				if r.Event != ev(i+1) {
					t.Fatalf("record %d = %+v", i, r.Event)
				}
			}
		})
	}

	// What a writer without the rewind produces: the half-written
	// fragment stays in the file and the next append lands after it
	// with seq already advanced past the failed record. Both corruptions
	// cascade — every record after the fault is dropped as torn tail.
	// This is the loss the rewind-and-hold-seq discipline prevents.
	t.Run("old-behavior-cascades", func(t *testing.T) {
		base := encodeV1(t, numbered([]bench.Event{ev(1), ev(2)}))
		okTail := encodeV1(t, numbered([]bench.Event{ev(1), ev(2), ev(3), ev(4)}))
		rec3 := okTail[len(base) : len(base)+(len(okTail)-len(base))/2]

		// Torn fragment mid-file: half of record 3's line, then record 4
		// written whole (as a post-error retry loop would have done).
		rec4 := okTail[len(base)+len(rec3):]
		torn := append(append(append([]byte(nil), base...), rec3[:len(rec3)/2]...), rec4...)
		if st := Replay(torn); len(st.Records) != 2 || !st.Torn {
			t.Fatalf("mid-file fragment: records=%d torn=%v — expected cascade", len(st.Records), st.Torn)
		}

		// Seq advanced past the failure: record 3 never landed but the
		// writer's counter moved on, so the next append carries seq 4.
		gap := append(append([]byte(nil), base...), rec4...)
		if st := Replay(gap); len(st.Records) != 2 || !st.Torn {
			t.Fatalf("seq gap: records=%d torn=%v — expected cascade", len(st.Records), st.Torn)
		}
	})
}

// TestJournalV2SealFailureRetry: a failed seal keeps the accepted
// records pending and the file rewound, so a later Flush (or Close)
// lands them — nothing accepted is lost to a transient write error.
func TestJournalV2SealFailureRetry(t *testing.T) {
	dir := t.TempDir()
	j, err := CreateJournal(dir, testManifest(t, 1, testConfig{}, nil), v2Options(2))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	ev := func(i int) bench.Event {
		return bench.Event{Kind: bench.EventSample, Value: float64(i), Calls: i}
	}
	if err := j.Record(ev(1)); err != nil {
		t.Fatal(err)
	}
	prev := journalWrite
	journalWrite = func(f *os.File, b []byte) (int, error) {
		n, _ := f.Write(b[:len(b)/3])
		return n, os.ErrDeadlineExceeded
	}
	if err := j.Record(ev(2)); err == nil { // triggers the failing seal
		journalWrite = prev
		t.Fatal("faulted seal reported success")
	}
	journalWrite = prev
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := j.Record(ev(3)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, st, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Torn || len(st.Records) != 3 {
		t.Fatalf("after retry: torn=%v records=%d, want 3 clean", st.Torn, len(st.Records))
	}
}

// TestRunResumeBitIdenticalAcrossFormats is the cross-format acceptance
// test: the same interrupted campaign resumes to bit-identical samples
// whether its journal is v2 — including losing its unsealed tail (the
// group-commit window) — or the v1 JSONL a v1 writer left at the same
// point, which resume refuses until it is converted.
func TestRunResumeBitIdenticalAcrossFormats(t *testing.T) {
	const seed = 5
	cfg := testConfig{System: "quiet", Samples: 20}
	want, err := bench.RunErr(testPlan(), measureFrom(seed))
	if err != nil {
		t.Fatal(err)
	}

	for _, format := range []Format{FormatJSONL, FormatV2} {
		t.Run(format.String(), func(t *testing.T) {
			dir := t.TempDir()
			m := testManifest(t, seed, cfg, nil)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			inner := measureFrom(seed)
			calls := 0
			res, err := RunOpts(ctx, dir, m, testPlan(), func() (float64, error) {
				if calls++; calls == 31 {
					cancel()
				}
				return inner()
			}, v2Options(8))
			if err != nil {
				t.Fatal(err)
			}
			if res.Stop != bench.StopInterrupted {
				t.Fatalf("Stop = %q, want interrupted", res.Stop)
			}

			resume := func() (bench.Result, ResumeInfo, error) {
				return Resume(context.Background(), dir, m, testPlan(),
					measureFrom(seed), ResumeOptions{Journal: v2Options(8)})
			}
			if format == FormatJSONL {
				rewriteAsV1(t, dir)
				if _, _, err := resume(); !errors.Is(err, ErrJournalV1) {
					t.Fatalf("resume of a v1 journal: err = %v, want ErrJournalV1", err)
				}
				if _, err := ConvertJournal(dir); err != nil {
					t.Fatal(err)
				}
			} else {
				// Simulate the OS crash the group-commit trade permits:
				// drop the final sealed chunk (standing in for an unsealed
				// tail that never reached disk). Resume re-measures it.
				path := filepath.Join(dir, JournalFile)
				data := readFile(t, path)
				st := Replay(data)
				if st.Torn || len(st.Records) == 0 {
					t.Fatalf("setup: torn=%v records=%d", st.Torn, len(st.Records))
				}
				// Find the start of the last chunk and cut mid-way into it.
				cut := int64(len(magicV2))
				rest := data[len(magicV2):]
				for {
					_, n, ok := colenc.ReadFrame(rest)
					if !ok {
						t.Fatal("setup: torn chunk")
					}
					if len(rest) == n {
						break
					}
					cut += int64(n)
					rest = rest[n:]
				}
				if err := os.WriteFile(path, data[:cut+3], 0o644); err != nil {
					t.Fatal(err)
				}
			}

			got, info, err := resume()
			if err != nil {
				t.Fatal(err)
			}
			if format == FormatV2 && !info.Torn {
				t.Error("v2 crash simulation: tail not reported torn")
			}
			if len(got.Raw) != len(want.Raw) {
				t.Fatalf("resumed n=%d, uninterrupted n=%d", len(got.Raw), len(want.Raw))
			}
			for i := range got.Raw {
				if math.Float64bits(got.Raw[i]) != math.Float64bits(want.Raw[i]) {
					t.Fatalf("sample %d diverged", i)
				}
			}
			_, st, err := Load(dir)
			if err != nil {
				t.Fatal(err)
			}
			if xs := st.Samples(); len(xs) != len(want.Raw) {
				t.Errorf("final journal has %d samples, want %d", len(xs), len(want.Raw))
			}
			if st.Format != FormatV2 {
				t.Errorf("final journal format %v, want v2", st.Format)
			}
		})
	}
}

// TestConvertJournal upgrades v1 to v2, verifies the result is exactly
// the journal a v2 writer would have produced, refuses torn journals,
// and proves a converted campaign resumes bit-identically to the
// uninterrupted one.
func TestConvertJournal(t *testing.T) {
	evs := journalEvents(100)

	t.Run("round-trip", func(t *testing.T) {
		dir := writeV1Journal(t, evs)
		info, err := ConvertJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		if info.From != FormatJSONL || info.To != FormatV2 || info.Records != len(evs) {
			t.Fatalf("info = %+v", info)
		}
		if info.NewBytes*2 > info.OldBytes {
			t.Fatalf("conversion barely shrank: %d → %d", info.OldBytes, info.NewBytes)
		}
		_, st, err := Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		if st.Format != FormatV2 || st.Torn || len(st.Records) != len(evs) {
			t.Fatalf("after v1→v2: %v torn=%v records=%d", st.Format, st.Torn, len(st.Records))
		}
		converted := readFile(t, filepath.Join(dir, JournalFile))
		fresh := readFile(t, filepath.Join(writeJournal(t, JournalOptions{}, evs), JournalFile))
		if !bytes.Equal(converted, fresh) {
			t.Fatalf("converted journal (%d B) differs from a fresh v2 journal of the same events (%d B)",
				len(converted), len(fresh))
		}

		// Idempotent: converting a v2 journal rewrites nothing.
		again, err := ConvertJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		if again.From != FormatV2 || again.OldBytes != again.NewBytes {
			t.Fatalf("idempotent convert: %+v", again)
		}
	})

	t.Run("refuses-torn", func(t *testing.T) {
		dir := writeV1Journal(t, evs)
		path := filepath.Join(dir, JournalFile)
		data := readFile(t, path)
		if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ConvertJournal(dir); err == nil {
			t.Fatal("converted a torn journal")
		}
	})

	t.Run("resume-after-convert", func(t *testing.T) {
		const seed = 5
		want, err := bench.RunErr(testPlan(), measureFrom(seed))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		m := testManifest(t, seed, testConfig{System: "quiet", Samples: 20}, nil)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		inner := measureFrom(seed)
		calls := 0
		if _, err := Run(ctx, dir, m, testPlan(), func() (float64, error) {
			if calls++; calls == 31 {
				cancel()
			}
			return inner()
		}); err != nil {
			t.Fatal(err)
		}
		rewriteAsV1(t, dir)
		if _, err := ConvertJournal(dir); err != nil {
			t.Fatal(err)
		}
		got, _, err := Resume(context.Background(), dir, m, testPlan(),
			measureFrom(seed), ResumeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Raw) != len(want.Raw) {
			t.Fatalf("resumed n=%d, want %d", len(got.Raw), len(want.Raw))
		}
		for i := range got.Raw {
			if math.Float64bits(got.Raw[i]) != math.Float64bits(want.Raw[i]) {
				t.Fatalf("sample %d diverged after convert", i)
			}
		}
	})
}
