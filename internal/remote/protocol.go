// Package remote crosses the machine boundary for distributed
// campaigns: an HTTP/JSON transport that plugs a remote launcher into
// the shard supervisor's StartFunc seam. A worker agent registers with
// the coordinator, receives hash-pinned shard manifests (seeded with
// the coordinator's journal mirror, so a replacement worker resumes a
// lost worker's units without re-measuring completed observations),
// runs the journaled executor locally, and ships journal bytes back as
// CRC32-framed chunks with resumable offsets. The coordinator mirrors
// every shard directory — heartbeat file included — so the existing
// heartbeat supervision (crash, stall, and now partition detection)
// works across the wire unchanged.
//
// The failure model is adversarial networking, not adversarial peers:
// messages are dropped, delayed, duplicated, and partitioned (the
// seeded FaultTransport injects exactly those), and a worker presumed
// dead may come back and keep talking. Every mutating message is
// therefore fenced by (sweep hash, shard, attempt): the coordinator
// refuses chunks, heartbeats, and completion claims from any attempt
// other than the one it currently supervises — Rule 9's drift refusal
// extended to attempt identity, so a zombie worker's late bytes can
// never corrupt a reassigned shard's mirror. The invariant stays
// absolute: the merged report is byte-identical to the single-process
// run, or the loss is explicit.
package remote

import (
	"fmt"
	"hash/crc32"
	"slices"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/rules"
	"repro/internal/shard"

	"repro/internal/rng"
)

// ProtocolVersion identifies the wire protocol; a version mismatch at
// registration is refused rather than negotiated — a drifted protocol
// is a drifted experiment transport (Rule 9). Version 2 dropped the
// shard manifest's journal field: every worker journals v2, and a
// version-1 worker would read its absence as v1 and write unit journals
// a replacement worker could not resume.
const ProtocolVersion = 2

// MaxChunk bounds one chunk frame's payload. Larger ships are split;
// larger received frames are refused.
const MaxChunk = 256 << 10

// Coordinator endpoints (worker → coordinator).
const (
	PathRegister  = "/v1/register"
	PathChunk     = "/v1/chunk"
	PathHeartbeat = "/v1/heartbeat"
	PathDone      = "/v1/done"
	PathFail      = "/v1/fail"
)

// Worker endpoints (coordinator → worker).
const (
	PathAssign = "/v1/assign"
	PathCancel = "/v1/cancel"
	PathStatus = "/v1/status"
)

// RegisterRequest announces a worker to the coordinator: where to reach
// it and the Rule 9 record of the host it measures on. The environment
// fingerprint is the worker's identity for merge-time stratification —
// two workers on one host share it, two hosts never do.
type RegisterRequest struct {
	Protocol       int               `json:"protocol"`
	Addr           string            `json:"addr"` // worker base URL, e.g. http://10.0.0.2:8701
	Hostname       string            `json:"hostname"`
	Env            rules.Environment `json:"env"`
	EnvFingerprint string            `json:"env_fingerprint"`
}

// Validate rejects registrations the coordinator must not accept.
func (r RegisterRequest) Validate() error {
	if r.Protocol != ProtocolVersion {
		return fmt.Errorf("remote: protocol v%d, coordinator speaks v%d", r.Protocol, ProtocolVersion)
	}
	if !strings.HasPrefix(r.Addr, "http://") && !strings.HasPrefix(r.Addr, "https://") {
		return fmt.Errorf("remote: worker addr %q is not an http(s) URL", r.Addr)
	}
	if r.EnvFingerprint == "" {
		return fmt.Errorf("remote: registration carries no environment fingerprint (Rule 9)")
	}
	return nil
}

// RegisterResponse acknowledges a registration.
type RegisterResponse struct {
	WorkerID  string `json:"worker_id"`
	SweepHash string `json:"sweep_hash"`
	SweepName string `json:"sweep_name,omitempty"`
}

// FileState carries one mirrored file whole — the seed a newly assigned
// worker starts from, so reassignment resumes journals instead of
// re-measuring.
type FileState struct {
	Path string `json:"path"`
	Data []byte `json:"data"`
	CRC  uint32 `json:"crc"`
}

// AssignRequest hands one shard attempt to a worker: the hash-pinned
// shard manifest, the fencing attempt number, and the coordinator's
// current mirror of the shard's files.
type AssignRequest struct {
	SweepHash string         `json:"sweep_hash"`
	Shard     int            `json:"shard"`
	Attempt   int            `json:"attempt"`
	Manifest  shard.Manifest `json:"manifest"`
	Seed      []FileState    `json:"seed,omitempty"`
}

// AssignResponse acknowledges (or refuses) an assignment.
type AssignResponse struct {
	OK      bool   `json:"ok"`
	Refused string `json:"refused,omitempty"`
}

// ChunkFrame ships one span of one shard file from worker to
// coordinator. Off is the absolute file offset of Data; CRC is
// crc32.IEEE over Data alone, so a torn or bit-flipped frame is refused
// before any byte lands in the mirror. A Truncate frame (empty Data)
// shrinks the mirror to Off — sent once per journal at attempt start,
// because a resumed executor drops the torn tail a crash left and the
// mirror must drop it too before the divergent continuation arrives.
type ChunkFrame struct {
	WorkerID  string `json:"worker_id"`
	SweepHash string `json:"sweep_hash"`
	Shard     int    `json:"shard"`
	Attempt   int    `json:"attempt"`
	Path      string `json:"path"`
	Off       int64  `json:"off"`
	Data      []byte `json:"data,omitempty"`
	CRC       uint32 `json:"crc"`
	Truncate  bool   `json:"truncate,omitempty"`
}

// Validate checks frame integrity and path safety. It is the only gate
// between wire bytes and mirror writes, so it refuses everything it
// does not positively recognize.
func (f ChunkFrame) Validate() error {
	if !ValidChunkPath(f.Path) {
		return fmt.Errorf("remote: chunk path %q not in the shard file allowlist", f.Path)
	}
	if f.Off < 0 {
		return fmt.Errorf("remote: negative chunk offset %d", f.Off)
	}
	if f.Shard < 0 {
		return fmt.Errorf("remote: negative shard index %d", f.Shard)
	}
	if f.Attempt < 1 {
		return fmt.Errorf("remote: attempt %d below 1", f.Attempt)
	}
	if len(f.Data) > MaxChunk {
		return fmt.Errorf("remote: chunk of %d bytes exceeds MaxChunk %d", len(f.Data), MaxChunk)
	}
	if f.Truncate && len(f.Data) > 0 {
		return fmt.Errorf("remote: truncate frame carries %d data bytes", len(f.Data))
	}
	if got := crc32.ChecksumIEEE(f.Data); got != f.CRC {
		return fmt.Errorf("remote: chunk CRC mismatch (frame %08x, payload %08x)", f.CRC, got)
	}
	return nil
}

// ChunkResponse tells the worker where the mirror actually stands.
// ResumeOff is authoritative: a duplicated chunk (offset already
// covered) is acknowledged without rewriting, a gap (offset past the
// mirror) is refused, and in both cases the worker continues shipping
// from ResumeOff — re-shipping only the suffix after a reconnect.
type ChunkResponse struct {
	OK        bool   `json:"ok"`
	ResumeOff int64  `json:"resume_off"`
	Refused   string `json:"refused,omitempty"`
	Stale     bool   `json:"stale,omitempty"` // fenced out: stop shipping this attempt
}

// HeartbeatMsg forwards the executor's local heartbeat across the wire;
// the coordinator writes it into the mirrored shard directory, where
// the supervisor's liveness poll picks it up exactly as if the executor
// were local. A partition therefore looks like a stall — which is the
// correct diagnosis: no evidence of progress is no evidence.
type HeartbeatMsg struct {
	WorkerID  string          `json:"worker_id"`
	SweepHash string          `json:"sweep_hash"`
	Shard     int             `json:"shard"`
	Attempt   int             `json:"attempt"`
	HB        shard.Heartbeat `json:"hb"`
}

// FileSum is one entry of a completion inventory: the full-file CRC the
// coordinator re-verifies before trusting a shard as shipped.
type FileSum struct {
	Path string `json:"path"`
	Size int64  `json:"size"`
	CRC  uint32 `json:"crc"`
}

// DoneRequest claims shard completion: the executor's done record plus
// the complete file inventory. The coordinator writes done.json only
// after every mirrored file matches the inventory byte-for-byte — the
// completion barrier that makes "done" mean "fully shipped".
type DoneRequest struct {
	WorkerID  string          `json:"worker_id"`
	SweepHash string          `json:"sweep_hash"`
	Shard     int             `json:"shard"`
	Attempt   int             `json:"attempt"`
	Done      shard.ShardDone `json:"done"`
	Files     []FileSum       `json:"files"`
}

// DoneResponse acknowledges completion or names what is still missing;
// Mirror carries the coordinator's current size per mismatched file so
// the worker re-ships only the missing suffixes.
type DoneResponse struct {
	OK      bool      `json:"ok"`
	Refused string    `json:"refused,omitempty"`
	Stale   bool      `json:"stale,omitempty"`
	Mirror  []FileSum `json:"mirror,omitempty"`
}

// FailRequest reports a failed executor attempt (setup error, drift
// refusal, interrupted unit) so the supervisor reassigns without
// waiting for a heartbeat timeout.
type FailRequest struct {
	WorkerID  string `json:"worker_id"`
	SweepHash string `json:"sweep_hash"`
	Shard     int    `json:"shard"`
	Attempt   int    `json:"attempt"`
	Error     string `json:"error"`
}

// CancelRequest fences off one attempt on the worker side.
type CancelRequest struct {
	SweepHash string `json:"sweep_hash"`
	Shard     int    `json:"shard"`
	Attempt   int    `json:"attempt"`
}

// shardFiles are the per-unit campaign files a worker ships, in the
// order it ships them. The manifest goes first, the order CreateJournal
// writes them in: a ship pass cut short must never leave the mirror
// holding a journal without its manifest, which a reassigned executor
// would take for no campaign and then fail to create over the existing
// journal. The heartbeat travels on its own message, and done.json is
// written only by the coordinator after inventory verification.
var shardFiles = []string{
	campaign.ManifestFile, // write-once (atomic rename)
	campaign.JournalFile,  // append-only; may truncate once at resume
	shard.UnitResultFile,  // write-once completion sentinel
}

// ValidChunkPath accepts exactly the relative paths a worker may write
// into a mirrored shard directory: units/<safe-id>/<campaign file>.
func ValidChunkPath(p string) bool {
	parts := strings.Split(p, "/")
	if len(parts) != 3 || parts[0] != "units" {
		return false
	}
	return safeID(parts[1]) && slices.Contains(shardFiles, parts[2])
}

// ValidSeedPath additionally accepts the heartbeat file, which a seed
// carries so the heartbeat sequence stays monotonic across workers.
func ValidSeedPath(p string) bool {
	return p == shard.HeartbeatFile || ValidChunkPath(p)
}

// safeID mirrors the shard package's directory-name discipline.
func safeID(id string) bool {
	if id == "" || id[0] == '.' {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '.' || r == '_' || r == '-':
		default:
			return false
		}
	}
	return true
}

// hash64 folds a string into the jitter seed.
func hash64(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// SeededBackoff is the retry schedule of every network loop in this
// package: exponential growth from base, capped at ceiling, with
// deterministic jitter in [1, 1.5)× derived from (seed, key, try) — so
// tests reproduce the exact timing of a retry storm, and concurrent
// retriers with different keys decorrelate instead of thundering.
func SeededBackoff(seed uint64, key string, try int, base, ceiling time.Duration) time.Duration {
	if try < 1 {
		try = 1
	}
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if ceiling <= 0 {
		ceiling = 5 * time.Second
	}
	d := base
	for i := 1; i < try && d < ceiling; i++ {
		d *= 2
	}
	if d > ceiling {
		d = ceiling
	}
	frac := float64(rng.Mix64(seed^hash64(key)^uint64(try))>>11) / (1 << 53)
	return d + time.Duration(frac*float64(d)/2)
}
