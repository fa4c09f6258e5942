package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// Telemetry: transport accounting. Counters only — nothing here may
// change a report byte.
var (
	telAssigns      = telemetry.Default().Counter("remote.assigns")
	telChunks       = telemetry.Default().Counter("remote.chunks_applied")
	telChunkBytes   = telemetry.Default().Counter("remote.chunk_bytes")
	telDupChunks    = telemetry.Default().Counter("remote.chunks_duplicate")
	telStaleRefused = telemetry.Default().Counter("remote.stale_refused")
	telBadFrames    = telemetry.Default().Counter("remote.bad_frames")
	telHeartbeats   = telemetry.Default().Counter("remote.heartbeats_forwarded")
	telWorkers      = telemetry.Default().Gauge("remote.workers")
)

// errKilled is the Wait result of an attempt the supervisor killed.
var errKilled = errors.New("remote: attempt fenced off by supervisor kill")

// CoordinatorOptions tunes the coordinator transport.
type CoordinatorOptions struct {
	// Listen is the TCP address to serve on (default "127.0.0.1:0").
	Listen string
	// RequestTimeout bounds every RPC to a worker (default 5s): a
	// partitioned worker must fail the call, not hang the supervisor.
	RequestTimeout time.Duration
	// AssignRetries is the per-attempt budget of assignment RPC retries
	// before the attempt counts as a crash (default 3).
	AssignRetries int
	// Seed derives all retry jitter (campaign seed by convention).
	Seed uint64
	// Transport, when non-nil, replaces the HTTP transport for worker
	// RPCs — the seam the seeded fault injector plugs into.
	Transport http.RoundTripper
	// Log, when non-nil, receives one line per transport event.
	Log io.Writer
}

func (o CoordinatorOptions) withDefaults() CoordinatorOptions {
	if o.Listen == "" {
		o.Listen = "127.0.0.1:0"
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 5 * time.Second
	}
	if o.AssignRetries <= 0 {
		o.AssignRetries = 3
	}
	return o
}

// workerRec is one registered worker.
type workerRec struct {
	ID       string
	Addr     string
	Hostname string
	EnvFP    string
	reg      RegisterRequest
}

// lease fences one shard attempt: only chunks, heartbeats, and
// completion claims carrying exactly this (attempt, worker) may touch
// the shard's mirror. Kill or completion marks it dead; a dead lease
// refuses everything, so a zombie worker that outlived its supervision
// cannot corrupt a reassigned shard.
type lease struct {
	shard   int
	attempt int
	worker  string

	mu   sync.Mutex
	dead bool
	err  error
	done chan struct{} // closed on first resolve
}

// resolve delivers the attempt outcome exactly once.
func (l *lease) resolve(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dead {
		return
	}
	l.dead = true
	l.err = err
	close(l.done)
}

func (l *lease) isDead() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dead
}

// Coordinator is the sweep-side end of the remote transport: an HTTP
// server workers register with, a mirror of every shard directory fed
// by their chunk shipments, and a StartFunc that makes the existing
// supervisor drive remote attempts exactly like local processes.
type Coordinator struct {
	sweepDir string
	sweep    shard.SweepManifest
	opt      CoordinatorOptions
	srv      *http.Server
	ln       net.Listener
	client   *http.Client

	mu         sync.Mutex
	workers    []*workerRec
	byAddr     map[string]*workerRec
	leases     map[int]*lease
	lastWorker map[int]string // previous holder per shard, for reassignment anti-affinity
	nextID     int
	rr         int

	fileMu sync.Mutex // serializes all mirror file mutations
}

// NewCoordinator opens the sweep in sweepDir and starts serving the
// worker-facing API. Close releases the listener.
func NewCoordinator(sweepDir string, opt CoordinatorOptions) (*Coordinator, error) {
	sw, err := shard.LoadSweep(sweepDir)
	if err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	ln, err := net.Listen("tcp", opt.Listen)
	if err != nil {
		return nil, fmt.Errorf("remote: coordinator listen: %w", err)
	}
	c := &Coordinator{
		sweepDir:   sweepDir,
		sweep:      sw,
		opt:        opt,
		ln:         ln,
		byAddr:     map[string]*workerRec{},
		leases:     map[int]*lease{},
		lastWorker: map[int]string{},
		client: &http.Client{
			Timeout:   opt.RequestTimeout,
			Transport: opt.Transport,
		},
	}
	mux := http.NewServeMux()
	mux.HandleFunc(PathRegister, c.handleRegister)
	mux.HandleFunc(PathChunk, c.handleChunk)
	mux.HandleFunc(PathHeartbeat, c.handleHeartbeat)
	mux.HandleFunc(PathDone, c.handleDone)
	mux.HandleFunc(PathFail, c.handleFail)
	c.srv = &http.Server{Handler: mux}
	go c.srv.Serve(ln)
	return c, nil
}

// URL returns the coordinator's base URL for worker registration.
func (c *Coordinator) URL() string {
	return "http://" + c.ln.Addr().String()
}

// Close stops serving. In-flight leases are resolved as killed.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	for _, l := range c.leases {
		l.resolve(errKilled)
	}
	c.mu.Unlock()
	return c.srv.Close()
}

// WorkerInfo describes one registered worker.
type WorkerInfo struct {
	ID       string
	Addr     string
	Hostname string
	EnvFP    string
}

// Workers lists registered workers in registration order.
func (c *Coordinator) Workers() []WorkerInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerInfo, len(c.workers))
	for i, w := range c.workers {
		out[i] = WorkerInfo{ID: w.ID, Addr: w.Addr, Hostname: w.Hostname, EnvFP: w.EnvFP}
	}
	return out
}

// WaitForWorkers blocks until at least n workers have registered.
func (c *Coordinator) WaitForWorkers(ctx context.Context, n int) error {
	for {
		c.mu.Lock()
		got := len(c.workers)
		c.mu.Unlock()
		if got >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("remote: %d of %d worker(s) registered: %w", got, n, ctx.Err())
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// StartFunc returns the launcher that plugs remote execution into
// shard.Supervise: each call assigns the shard attempt to a registered
// worker (preferring a different worker than the previous, failed
// attempt's) and returns a handle whose Wait observes the mirror-side
// completion and whose Kill fences the attempt.
func (c *Coordinator) StartFunc() shard.StartFunc {
	return func(shardDir string, attempt int) (shard.Handle, error) {
		var idx int
		if _, err := fmt.Sscanf(filepath.Base(shardDir), "shard-%d", &idx); err != nil {
			return nil, fmt.Errorf("remote: shard dir %q: %w", shardDir, err)
		}
		w, err := c.pickWorker(idx)
		if err != nil {
			return nil, err
		}
		m, err := shard.LoadManifest(shardDir)
		if err != nil {
			return nil, err
		}
		seed, err := c.snapshotSeed(shardDir)
		if err != nil {
			return nil, err
		}
		l := &lease{shard: idx, attempt: attempt, worker: w.ID, done: make(chan struct{})}
		c.mu.Lock()
		if old := c.leases[idx]; old != nil {
			old.resolve(errKilled) // no two live leases per shard, ever
		}
		c.leases[idx] = l
		c.lastWorker[idx] = w.ID
		c.mu.Unlock()

		req := AssignRequest{
			SweepHash: c.sweep.SweepHash,
			Shard:     idx,
			Attempt:   attempt,
			Manifest:  m,
			Seed:      seed,
		}
		if err := c.assign(w, req); err != nil {
			l.resolve(errKilled)
			return nil, fmt.Errorf("remote: assigning shard %d attempt %d to %s: %w", idx, attempt, w.ID, err)
		}
		telAssigns.Inc()
		c.logf("shard %d: attempt %d assigned to %s (%s)\n", idx, attempt, w.ID, w.Hostname)
		return &remoteHandle{c: c, w: w, l: l}, nil
	}
}

// pickWorker chooses the next worker round-robin, skipping the previous
// holder of the shard when any alternative exists — a lost worker's
// shard should move, not bounce.
func (c *Coordinator) pickWorker(shardIdx int) (*workerRec, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.workers) == 0 {
		return nil, errors.New("remote: no workers registered")
	}
	prev := c.lastWorker[shardIdx]
	for i := 0; i < len(c.workers); i++ {
		w := c.workers[c.rr%len(c.workers)]
		c.rr++
		if w.ID == prev && len(c.workers) > 1 {
			continue
		}
		return w, nil
	}
	w := c.workers[c.rr%len(c.workers)]
	c.rr++
	return w, nil
}

// assign delivers one assignment with bounded seeded-backoff retries.
func (c *Coordinator) assign(w *workerRec, req AssignRequest) error {
	key := fmt.Sprintf("assign/%d/%d", req.Shard, req.Attempt)
	var last error
	for try := 1; try <= c.opt.AssignRetries; try++ {
		var resp AssignResponse
		err := postJSON(c.client, w.Addr+PathAssign, req, &resp)
		if err == nil {
			if !resp.OK {
				return fmt.Errorf("worker refused: %s", resp.Refused)
			}
			return nil
		}
		last = err
		time.Sleep(SeededBackoff(c.opt.Seed, key, try, 50*time.Millisecond, time.Second))
	}
	return last
}

// snapshotSeed captures the shard mirror for an assignment: heartbeat
// plus every unit campaign file. The replacement worker starts from
// exactly what the coordinator verified shipped — completed units are
// skipped, partial journals resumed, nothing re-measured.
func (c *Coordinator) snapshotSeed(shardDir string) ([]FileState, error) {
	c.fileMu.Lock()
	defer c.fileMu.Unlock()
	var out []FileState
	add := func(rel string) error {
		b, err := os.ReadFile(filepath.Join(shardDir, rel))
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		out = append(out, FileState{Path: rel, Data: b, CRC: crc32.ChecksumIEEE(b)})
		return nil
	}
	if err := add(shard.HeartbeatFile); err != nil {
		return nil, err
	}
	units, err := os.ReadDir(filepath.Join(shardDir, shard.UnitsDir))
	if err != nil {
		if os.IsNotExist(err) {
			return out, nil
		}
		return nil, err
	}
	// ReadDir sorts by name; within a unit the manifest comes first, so
	// the worker writes the seed in the order CreateJournal would.
	for _, u := range units {
		if !u.IsDir() {
			continue
		}
		for _, f := range shardFiles {
			if err := add(filepath.Join(shard.UnitsDir, u.Name(), f)); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// remoteHandle adapts a fenced lease to the supervisor's Handle.
type remoteHandle struct {
	c *Coordinator
	w *workerRec
	l *lease
}

// Wait blocks until the attempt resolves (done, fail, or kill).
func (h *remoteHandle) Wait() error {
	<-h.l.done
	h.l.mu.Lock()
	defer h.l.mu.Unlock()
	return h.l.err
}

// Kill fences the attempt: the lease dies first (so not one more byte
// from it can land), then a best-effort cancel tells the worker to stop
// burning cycles — if the network eats it, the worker finds out when
// its next ship is refused as stale.
func (h *remoteHandle) Kill() error {
	h.l.resolve(errKilled)
	go func() {
		var resp AssignResponse
		_ = postJSON(h.c.client, h.w.Addr+PathCancel, CancelRequest{
			SweepHash: h.c.sweep.SweepHash,
			Shard:     h.l.shard,
			Attempt:   h.l.attempt,
		}, &resp)
	}()
	return nil
}

// ---- HTTP handlers (worker → coordinator) ----

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !readBody(w, r, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		httpErr(w, http.StatusBadRequest, err)
		return
	}
	c.mu.Lock()
	rec, ok := c.byAddr[req.Addr]
	if !ok {
		rec = &workerRec{
			ID:       fmt.Sprintf("w%03d", c.nextID),
			Addr:     req.Addr,
			Hostname: req.Hostname,
			EnvFP:    req.EnvFingerprint,
			reg:      req,
		}
		c.nextID++
		c.workers = append(c.workers, rec)
		c.byAddr[req.Addr] = rec
		telWorkers.Set(int64(len(c.workers)))
	}
	c.mu.Unlock()
	c.logf("worker %s registered from %s (host %s, env %s)\n", rec.ID, req.Addr, req.Hostname, req.EnvFingerprint[:min(12, len(req.EnvFingerprint))])
	writeJSONResp(w, RegisterResponse{WorkerID: rec.ID, SweepHash: c.sweep.SweepHash, SweepName: c.sweep.Name})
}

// leaseFor fences one mutating message. A nil lease (with reason) means
// refuse — and the refusal is the zombie's signal to stand down.
func (c *Coordinator) leaseFor(sweepHash string, shardIdx, attempt int, workerID string) (*lease, string) {
	if sweepHash != c.sweep.SweepHash {
		return nil, fmt.Sprintf("sweep hash %s is not this coordinator's sweep", sweepHash)
	}
	c.mu.Lock()
	l := c.leases[shardIdx]
	c.mu.Unlock()
	if l == nil {
		return nil, fmt.Sprintf("shard %d has no active attempt", shardIdx)
	}
	if l.attempt != attempt || l.worker != workerID {
		return nil, fmt.Sprintf("shard %d is held by %s attempt %d, not %s attempt %d (stale)",
			shardIdx, l.worker, l.attempt, workerID, attempt)
	}
	if l.isDead() {
		return nil, fmt.Sprintf("shard %d attempt %d was fenced off (stale)", shardIdx, attempt)
	}
	return l, ""
}

func (c *Coordinator) handleChunk(w http.ResponseWriter, r *http.Request) {
	var f ChunkFrame
	if !readBody(w, r, &f) {
		return
	}
	if err := f.Validate(); err != nil {
		telBadFrames.Inc()
		writeJSONResp(w, ChunkResponse{OK: false, Refused: err.Error()})
		return
	}
	if _, reason := c.leaseFor(f.SweepHash, f.Shard, f.Attempt, f.WorkerID); reason != "" {
		telStaleRefused.Inc()
		writeJSONResp(w, ChunkResponse{OK: false, Refused: reason, Stale: true})
		return
	}
	writeJSONResp(w, c.applyChunk(f))
}

// applyChunk lands one validated, fenced frame in the mirror. The
// response's ResumeOff is always the mirror's post-apply size — the
// single source of truth the worker ships from.
func (c *Coordinator) applyChunk(f ChunkFrame) ChunkResponse {
	c.fileMu.Lock()
	defer c.fileMu.Unlock()
	path := filepath.Join(c.sweepDir, shard.ShardDirName(f.Shard), filepath.FromSlash(f.Path))
	size := int64(0)
	if st, err := os.Stat(path); err == nil {
		size = st.Size()
	}
	if f.Truncate {
		if f.Off > size {
			return ChunkResponse{OK: false, ResumeOff: size,
				Refused: fmt.Sprintf("cannot truncate %s to %d: mirror has %d bytes", f.Path, f.Off, size)}
		}
		if f.Off < size {
			if err := os.Truncate(path, f.Off); err != nil {
				return ChunkResponse{OK: false, ResumeOff: size, Refused: err.Error()}
			}
			c.logf("shard %d: mirror %s truncated %d → %d (torn tail dropped at resume)\n",
				f.Shard, f.Path, size, f.Off)
		}
		return ChunkResponse{OK: true, ResumeOff: f.Off}
	}
	switch {
	case f.Off == size:
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return ChunkResponse{OK: false, ResumeOff: size, Refused: err.Error()}
		}
		fh, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return ChunkResponse{OK: false, ResumeOff: size, Refused: err.Error()}
		}
		_, werr := fh.Write(f.Data)
		cerr := fh.Close()
		if werr != nil || cerr != nil {
			return ChunkResponse{OK: false, ResumeOff: size, Refused: "mirror write failed"}
		}
		telChunks.Inc()
		telChunkBytes.Add(int64(len(f.Data)))
		return ChunkResponse{OK: true, ResumeOff: size + int64(len(f.Data))}
	case f.Off < size:
		// Duplicate delivery (a retried or network-duplicated frame):
		// acknowledge without touching the mirror — appends are
		// idempotent because ResumeOff, not the sender's counter, is
		// authoritative.
		telDupChunks.Inc()
		return ChunkResponse{OK: true, ResumeOff: size}
	default:
		// Gap: the worker is ahead of the mirror (a lost earlier chunk).
		return ChunkResponse{OK: false, ResumeOff: size,
			Refused: fmt.Sprintf("offset %d past mirror size %d", f.Off, size)}
	}
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var m HeartbeatMsg
	if !readBody(w, r, &m) {
		return
	}
	if _, reason := c.leaseFor(m.SweepHash, m.Shard, m.Attempt, m.WorkerID); reason != "" {
		telStaleRefused.Inc()
		writeJSONResp(w, ChunkResponse{OK: false, Refused: reason, Stale: true})
		return
	}
	c.fileMu.Lock()
	err := shard.WriteHeartbeat(filepath.Join(c.sweepDir, shard.ShardDirName(m.Shard)), m.HB)
	c.fileMu.Unlock()
	if err != nil {
		writeJSONResp(w, ChunkResponse{OK: false, Refused: err.Error()})
		return
	}
	telHeartbeats.Inc()
	writeJSONResp(w, ChunkResponse{OK: true})
}

func (c *Coordinator) handleDone(w http.ResponseWriter, r *http.Request) {
	var req DoneRequest
	if !readBody(w, r, &req) {
		return
	}
	l, reason := c.leaseFor(req.SweepHash, req.Shard, req.Attempt, req.WorkerID)
	if reason != "" {
		telStaleRefused.Inc()
		writeJSONResp(w, DoneResponse{OK: false, Refused: reason, Stale: true})
		return
	}
	// Verify the inventory: "done" may only mean "every byte the worker
	// measured is in the mirror". Any mismatch sends back the mirror's
	// truth so the worker re-ships exactly the missing suffixes.
	shardDir := filepath.Join(c.sweepDir, shard.ShardDirName(req.Shard))
	c.fileMu.Lock()
	var mismatched []FileSum
	for _, fs := range req.Files {
		if !ValidChunkPath(fs.Path) {
			c.fileMu.Unlock()
			writeJSONResp(w, DoneResponse{OK: false, Refused: fmt.Sprintf("inventory path %q refused", fs.Path)})
			return
		}
		b, err := os.ReadFile(filepath.Join(shardDir, filepath.FromSlash(fs.Path)))
		if err != nil {
			mismatched = append(mismatched, FileSum{Path: fs.Path, Size: 0})
			continue
		}
		if int64(len(b)) != fs.Size || crc32.ChecksumIEEE(b) != fs.CRC {
			mismatched = append(mismatched, FileSum{Path: fs.Path, Size: int64(len(b)), CRC: crc32.ChecksumIEEE(b)})
		}
	}
	if len(mismatched) > 0 {
		c.fileMu.Unlock()
		writeJSONResp(w, DoneResponse{OK: false, Refused: "mirror incomplete", Mirror: mismatched})
		return
	}
	// Inventory verified: record host provenance (Rule 9, per machine)
	// and publish the completion sentinel the supervisor trusts.
	c.mu.Lock()
	var rec *workerRec
	for _, wr := range c.workers {
		if wr.ID == req.WorkerID {
			rec = wr
			break
		}
	}
	c.mu.Unlock()
	if rec != nil {
		if err := shard.WriteHost(shardDir, shard.HostRecord{
			Hostname:       rec.Hostname,
			EnvFingerprint: rec.EnvFP,
			WorkerID:       rec.ID,
			Addr:           rec.Addr,
			Attempt:        req.Attempt,
		}); err != nil {
			c.fileMu.Unlock()
			writeJSONResp(w, DoneResponse{OK: false, Refused: err.Error()})
			return
		}
	}
	if err := writeJSONFile(filepath.Join(shardDir, shard.DoneFile), req.Done); err != nil {
		c.fileMu.Unlock()
		writeJSONResp(w, DoneResponse{OK: false, Refused: err.Error()})
		return
	}
	c.fileMu.Unlock()
	c.logf("shard %d: attempt %d completed by %s, inventory verified (%d files)\n",
		req.Shard, req.Attempt, req.WorkerID, len(req.Files))
	l.resolve(nil)
	writeJSONResp(w, DoneResponse{OK: true})
}

func (c *Coordinator) handleFail(w http.ResponseWriter, r *http.Request) {
	var req FailRequest
	if !readBody(w, r, &req) {
		return
	}
	l, reason := c.leaseFor(req.SweepHash, req.Shard, req.Attempt, req.WorkerID)
	if reason != "" {
		telStaleRefused.Inc()
		writeJSONResp(w, DoneResponse{OK: false, Refused: reason, Stale: true})
		return
	}
	c.logf("shard %d: attempt %d failed on %s: %s\n", req.Shard, req.Attempt, req.WorkerID, req.Error)
	l.resolve(fmt.Errorf("remote: worker %s: %s", req.WorkerID, req.Error))
	writeJSONResp(w, DoneResponse{OK: true})
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opt.Log != nil {
		fmt.Fprintf(c.opt.Log, format, args...)
	}
}

// ---- shared HTTP plumbing ----

// maxBody bounds any request/response body (a chunk plus JSON framing
// fits comfortably; a seed-laden assignment gets more headroom).
const maxBody = 64 << 20

// readBody decodes a JSON request body, refusing oversized payloads.
func readBody(w http.ResponseWriter, r *http.Request, v any) bool {
	defer r.Body.Close()
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	if err := dec.Decode(v); err != nil {
		httpErr(w, http.StatusBadRequest, fmt.Errorf("remote: decoding request: %w", err))
		return false
	}
	return true
}

func writeJSONResp(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func httpErr(w http.ResponseWriter, code int, err error) {
	http.Error(w, err.Error(), code)
}

// postJSON posts req and decodes the JSON response into resp.
func postJSON(client *http.Client, url string, req, resp any) error {
	b, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hr, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer hr.Body.Close()
	body, err := io.ReadAll(io.LimitReader(hr.Body, maxBody))
	if err != nil {
		return err
	}
	if hr.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %s", url, hr.Status, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, resp)
}

// writeJSONFile publishes v as indented JSON, the shard package's file
// format, with campaign.PublishFile.
func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return campaign.PublishFile(path, append(b, '\n'))
}
