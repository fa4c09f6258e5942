package campaign

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Chunk is one contiguous span of a campaign file, read for shipment:
// Data covers [Off, Off+len(Data)) of the file, CRC is crc32.IEEE over
// Data, Size is the file's total size at read time, and EOF reports
// whether this chunk reaches it. Shipping a journal as chunks keeps the
// resume discipline end-to-end: the receiver appends at its own size,
// acknowledges what it has, and a reconnecting sender re-reads only the
// suffix.
type Chunk struct {
	Off  int64
	Data []byte
	CRC  uint32
	Size int64
	EOF  bool
}

// chunkReadPause is a test seam invoked between the pre-read stat and
// the read itself, where a concurrent append can land. Production is a
// no-op.
var chunkReadPause = func() {}

// ReadFileChunk reads up to max bytes of path starting at off. off may
// equal the file size (an empty EOF chunk — the probe a sender uses to
// learn the receiver's resume offset costs no payload). off beyond the
// file size is an error: the caller's view of the file is ahead of
// reality, which is exactly the divergence chunked shipment must
// surface, not paper over.
//
// EOF and Size are computed from a re-stat taken AFTER the read: the
// file is a live journal an executor appends to concurrently, and a
// size captured before the read goes stale the moment an append lands
// in between — the sender would then believe it reached EOF while
// bytes remain, parking shipment until the next poll instead of
// draining immediately.
func ReadFileChunk(path string, off int64, max int) (Chunk, error) {
	if off < 0 {
		return Chunk{}, fmt.Errorf("campaign: negative chunk offset %d", off)
	}
	if max <= 0 {
		max = 64 << 10
	}
	f, err := os.Open(path)
	if err != nil {
		return Chunk{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return Chunk{}, err
	}
	size := st.Size()
	if off > size {
		return Chunk{}, fmt.Errorf("campaign: chunk offset %d beyond %s (%d bytes)", off, path, size)
	}
	n := size - off
	if n > int64(max) {
		n = int64(max)
	}
	chunkReadPause()
	buf := make([]byte, n)
	if _, err := io.ReadFull(io.NewSectionReader(f, off, n), buf); err != nil {
		return Chunk{}, fmt.Errorf("campaign: reading chunk of %s at %d: %w", path, off, err)
	}
	// Re-stat: an append-only journal never shrinks, so the post-read
	// size is the authoritative floor for whether bytes remain past
	// this chunk.
	st2, err := f.Stat()
	if err != nil {
		return Chunk{}, err
	}
	if st2.Size() > size {
		size = st2.Size()
	}
	return Chunk{
		Off:  off,
		Data: buf,
		CRC:  crc32.ChecksumIEEE(buf),
		Size: size,
		EOF:  off+n >= size,
	}, nil
}

// ValidPrefix replays journal bytes and reports how many leading bytes
// form whole, CRC-verified records — the truncation point a resumed
// journal is cut back to. Chunked shipment needs it because a crash can
// ship a torn tail before dying: the replacement executor drops that
// tail locally (Open truncates to the valid prefix) and must shrink the
// receiver's mirror to the same point before appending its divergent
// continuation.
func ValidPrefix(journal []byte) int64 {
	st := Replay(journal)
	return st.ValidBytes
}
