package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/bench"
	"repro/internal/telemetry"
)

// Telemetry: journal durability cost, observable without changing a
// byte of the journal itself (internal/telemetry's invariant).
var (
	telRecords = telemetry.Default().Counter("campaign.records")
	telChunks  = telemetry.Default().Counter("campaign.chunks")
	telFsyncUs = telemetry.Default().Histogram("campaign.fsync_us")
)

// fsyncFile, renameFile and journalWrite are indirection seams for the
// crash-durability tests, which record call order (write-ahead
// ordering) or inject mid-append faults (torn-state recovery).
// Production behaviour is the plain syscall.
var (
	fsyncFile    = func(f *os.File) error { return f.Sync() }
	renameFile   = os.Rename
	journalWrite = func(f *os.File, b []byte) (int, error) { return f.Write(b) }
)

// syncDir fsyncs a directory so a just-created or just-renamed entry in
// it survives a crash — without it, POSIX allows the rename itself to be
// lost even though the file's bytes were flushed.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = fsyncFile(d)
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// PublishFile durably and atomically replaces path with data: the bytes
// go to path+".tmp" and are fsynced, the temp file is renamed over
// path, and the directory is fsynced so the rename itself survives a
// crash. A crash at any point leaves either the old file or the new
// one under path, never a torn or empty one.
func PublishFile(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := writeFileDurable(tmp, data); err != nil {
		return err
	}
	if err := renameFile(tmp, path); err != nil {
		return err
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("syncing directory: %w", err)
	}
	return nil
}

// On-disk layout of a campaign directory.
const (
	// ManifestFile holds the campaign Manifest (JSON).
	ManifestFile = "manifest.json"
	// JournalFile is the append-only event journal. Writers produce the
	// v2 chunked binary layout (see journalv2.go); the name predates it
	// and is kept so finished v1 JSONL journals (one CRC-framed record
	// per line) still load. Readers sniff the format from the leading
	// bytes, so every consumer (shard merge, remote chunk shipment,
	// audit) reads either transparently.
	JournalFile = "journal.jsonl"
)

// Record is one journaled collection event, numbered densely from 1.
type Record struct {
	Seq   int         `json:"seq"`
	Event bench.Event `json:"event"`
}

// frame is the wire form of one v1 journal line: the record's exact
// JSON bytes plus their CRC32 (IEEE). The checksum is computed over the
// raw bytes as written, so a reader verifies integrity without
// re-encoding.
type frame struct {
	CRC uint32          `json:"crc"`
	Rec json.RawMessage `json:"rec"`
}

// State is the collection state reconstructed from a journal.
type State struct {
	// Records are the verified records, in order.
	Records []Record
	// Torn reports that the journal ended in a torn or corrupt record
	// (a crash mid-append, a bit flip); the bad tail was dropped.
	Torn bool
	// ValidBytes is the length of the verified journal prefix; bytes
	// past it are the dropped tail. For a v2 journal the prefix includes
	// the format header, so ValidBytes is never less than the header
	// size once the header verified.
	ValidBytes int64
	// Format is the sniffed on-disk format the bytes were decoded as.
	Format Format
}

// Events extracts the bench event stream from the verified records.
func (s State) Events() []bench.Event {
	evs := make([]bench.Event, len(s.Records))
	for i, r := range s.Records {
		evs[i] = r.Event
	}
	return evs
}

// Samples returns the retained observations, in collection order.
func (s State) Samples() []float64 {
	var xs []float64
	for _, r := range s.Records {
		if r.Event.Kind == bench.EventSample {
			xs = append(xs, r.Event.Value)
		}
	}
	return xs
}

// DefaultFlushEvery is the group-commit width: how many records a chunk
// accumulates before it is sealed (written, CRC-framed, and fsynced).
// One fsync then covers DefaultFlushEvery records instead of one, which
// is where the append throughput comes from; the price is that an OS
// crash can lose up to FlushEvery-1 trailing events (a clean Close
// loses none). Resume simply re-measures the lost tail —
// bit-identically, for a deterministic source.
const DefaultFlushEvery = 64

// JournalOptions tunes the journal writer. The zero value is the
// default group-commit width.
type JournalOptions struct {
	// FlushEvery is the records-per-chunk group-commit width; 0 means
	// DefaultFlushEvery.
	FlushEvery int
}

func (o JournalOptions) withDefaults() JournalOptions {
	if o.FlushEvery <= 0 {
		o.FlushEvery = DefaultFlushEvery
	}
	return o
}

// Journal is an open write-ahead journal. It implements bench.Recorder:
// attach it via Plan.Record and every collection event is framed,
// checksummed, and flushed to disk with its chunk before collection
// proceeds past the chunk boundary.
type Journal struct {
	f          *os.File
	seq        int
	flushEvery int
	pending    []Record // records accepted but not yet sealed
	good       int64    // offset of the last cleanly-written byte (the rewind floor)
	broken     error    // latched after an unrecoverable rewind failure
}

// Errors returned by the journal layer.
var (
	// ErrCampaignExists reports Create on a directory that already
	// holds a campaign (resume it with Open instead).
	ErrCampaignExists = errors.New("campaign: directory already holds a campaign")
	// ErrNoCampaign reports Open on a directory without a manifest.
	ErrNoCampaign = errors.New("campaign: no campaign in directory")
	// ErrJournalV1 reports Open on a v1 JSONL journal: v1 is read-only,
	// so the campaign must be converted to v2 before it can resume.
	ErrJournalV1 = errors.New("campaign: journal is v1 JSONL, which is read-only")
)

// Create starts a new campaign: it creates dir (if needed), writes the
// manifest, and opens an empty journal. It refuses a directory that
// already contains a campaign.
func Create(dir string, m Manifest) (*Journal, error) {
	return CreateJournal(dir, m, JournalOptions{})
}

// CreateJournal is Create with explicit journal options.
func CreateJournal(dir string, m Manifest, opt JournalOptions) (*Journal, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	mpath := filepath.Join(dir, ManifestFile)
	if _, err := os.Stat(mpath); err == nil {
		return nil, fmt.Errorf("%w: %s", ErrCampaignExists, dir)
	}
	mb, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("campaign: encoding manifest: %w", err)
	}
	// Manifest first, atomically AND durably: a journal must never exist
	// without the setup record that makes it interpretable (Rule 9).
	if err := PublishFile(mpath, append(mb, '\n')); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, JournalFile),
		os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	// Make the journal's directory entry durable too, so the on-disk
	// states a crash can leave are exactly: nothing, manifest only, or
	// manifest + journal — never a journal without its manifest.
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, fmt.Errorf("campaign: syncing directory: %w", err)
	}
	j := &Journal{f: f, flushEvery: opt.FlushEvery}
	// The format header goes down durably before the first record so
	// every later reader — including one racing a crash — sniffs v2 from
	// the verified prefix.
	if err := j.writeHeaderV2(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// writeFileDurable writes data to path and fsyncs the file before
// returning, so a subsequent rename can never publish incomplete bytes.
func writeFileDurable(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = fsyncFile(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Load reads a campaign directory without opening it for writing: the
// manifest plus the replayed journal state. Use it to inspect a
// campaign or to audit its integrity.
func Load(dir string) (Manifest, State, error) {
	mb, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		if os.IsNotExist(err) {
			return Manifest{}, State{}, fmt.Errorf("%w: %s", ErrNoCampaign, dir)
		}
		return Manifest{}, State{}, fmt.Errorf("campaign: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(mb, &m); err != nil {
		return Manifest{}, State{}, fmt.Errorf("campaign: corrupt manifest: %w", err)
	}
	jb, err := os.ReadFile(filepath.Join(dir, JournalFile))
	if err != nil {
		if os.IsNotExist(err) {
			return m, State{}, nil // campaign created, nothing collected yet
		}
		return m, State{}, fmt.Errorf("campaign: %w", err)
	}
	return m, Replay(jb), nil
}

// Open reopens an interrupted campaign for appending: it replays the
// journal, truncates any torn tail, and positions the writer after the
// last verified record.
func Open(dir string) (*Journal, Manifest, State, error) {
	return OpenJournal(dir, JournalOptions{})
}

// OpenJournal is Open with explicit options. A journal holding v1
// records is refused with ErrJournalV1 once its torn tail is dropped:
// v1 is read-only, and `scibench convert` upgrades it in place. Open
// never rewrites the journal itself — remote workers ship journals
// append-only, so a rewritten prefix would corrupt the coordinator's
// mirror.
func OpenJournal(dir string, opt JournalOptions) (*Journal, Manifest, State, error) {
	opt = opt.withDefaults()
	m, st, err := Load(dir)
	if err != nil {
		return nil, Manifest{}, State{}, err
	}
	f, err := os.OpenFile(filepath.Join(dir, JournalFile), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, Manifest{}, State{}, fmt.Errorf("campaign: %w", err)
	}
	// Physically drop the torn tail so the journal on disk is exactly
	// its verified prefix, then append after it.
	if err := f.Truncate(st.ValidBytes); err != nil {
		f.Close()
		return nil, Manifest{}, State{}, fmt.Errorf("campaign: truncating torn tail: %w", err)
	}
	if st.Format == FormatJSONL && st.ValidBytes > 0 {
		f.Close()
		return nil, Manifest{}, State{}, fmt.Errorf("%w: run `scibench convert %s` to upgrade it to v2, then resume", ErrJournalV1, dir)
	}
	if _, err := f.Seek(st.ValidBytes, 0); err != nil {
		f.Close()
		return nil, Manifest{}, State{}, fmt.Errorf("campaign: %w", err)
	}
	j := &Journal{f: f, seq: len(st.Records), flushEvery: opt.FlushEvery, good: st.ValidBytes}
	if st.ValidBytes == 0 {
		// Nothing verified, not even the header (a crash inside Create,
		// or an empty journal): lay the header down before appending.
		if err := j.writeHeaderV2(); err != nil {
			f.Close()
			return nil, Manifest{}, State{}, err
		}
	}
	return j, m, st, nil
}

// Replay scans raw journal bytes and reconstructs the verified state.
// The format is sniffed from the leading bytes (the v2 magic header vs
// v1 JSONL); in either format records are accepted up to (not
// including) the first frame that fails structural decoding, CRC
// verification, or dense sequence numbering — a crash mid-append leaves
// exactly such a torn tail, which is dropped.
func Replay(data []byte) State {
	switch SniffFormat(data) {
	case FormatV2:
		return replayV2(data)
	}
	st := State{Format: FormatJSONL}
	off := int64(0)
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			// No terminating newline: a torn final write.
			st.Torn = true
			return st
		}
		line := data[:nl]
		rec, ok := decodeLine(line)
		if !ok || rec.Seq != len(st.Records)+1 {
			st.Torn = true
			return st
		}
		st.Records = append(st.Records, rec)
		off += int64(nl + 1)
		st.ValidBytes = off
		data = data[nl+1:]
	}
	return st
}

// decodeLine verifies and decodes one v1 journal line.
func decodeLine(line []byte) (Record, bool) {
	var fr frame
	if err := json.Unmarshal(line, &fr); err != nil || fr.Rec == nil {
		return Record{}, false
	}
	if crc32.ChecksumIEEE(fr.Rec) != fr.CRC {
		return Record{}, false
	}
	var rec Record
	if err := json.Unmarshal(fr.Rec, &rec); err != nil {
		return Record{}, false
	}
	return rec, true
}

// Record appends one collection event under the write-ahead contract:
// the event is accepted into the pending chunk, which seals — write +
// CRC + group fsync — every FlushEvery records and on Close. Acceptance
// is the acknowledgment the collection loop sees; durability lands at
// the seal, so an OS crash exposes at most FlushEvery−1 trailing events
// (a clean Close loses none), and resume re-measures them
// deterministically.
//
// A failed seal leaves the journal recoverable: the file is rewound to
// the last durable offset (never leaving a torn fragment mid-file) and
// the records stay pending, so a caller that survives the error — or a
// Flush/Close after it — lands them. Without the rewind, the next
// successful seal would land after the torn fragment and Replay would
// drop it and everything beyond it as a torn tail.
func (j *Journal) Record(ev bench.Event) error {
	if j.broken != nil {
		return j.broken
	}
	j.pending = append(j.pending, Record{Seq: j.seq + len(j.pending) + 1, Event: ev})
	if len(j.pending) >= j.flushEvery {
		return j.seal()
	}
	return nil
}

// rewind restores the journal file to its last durable state after a
// failed append: everything past the rewind floor is a torn or
// unacknowledged fragment that must not precede future appends. If the
// rewind itself fails the journal latches broken — appending past an
// un-truncated fragment would silently orphan every later record.
func (j *Journal) rewind() {
	if err := j.f.Truncate(j.good); err != nil {
		j.broken = fmt.Errorf("campaign: journal unrecoverable: truncating torn fragment: %w", err)
		return
	}
	if _, err := j.f.Seek(j.good, 0); err != nil {
		j.broken = fmt.Errorf("campaign: journal unrecoverable: repositioning writer: %w", err)
	}
}

// Flush seals any pending chunk. Call it to checkpoint mid-campaign
// without closing.
func (j *Journal) Flush() error {
	if j.broken != nil {
		return j.broken
	}
	return j.seal()
}

// Close flushes and closes the journal file. Pending records are
// sealed first, so a clean shutdown never loses accepted events.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	err := j.seal()
	if serr := j.f.Sync(); err == nil {
		err = serr
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
