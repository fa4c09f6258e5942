package campaign

import (
	"fmt"
	"path/filepath"

	"repro/internal/colenc"
)

// ConvertInfo summarizes a journal format conversion.
type ConvertInfo struct {
	// From and To are the source and target formats (From is the
	// sniffed format, or v2 itself when the journal was already v2 and
	// nothing was rewritten).
	From, To Format
	// Records is the number of records carried across.
	Records int
	// OldBytes and NewBytes are the on-disk journal sizes before and
	// after (equal when no rewrite happened).
	OldBytes, NewBytes int64
}

// encodeJournal serializes records as a v2 journal from scratch: the
// exact bytes a fresh journal writing these records would hold (full
// chunks of DefaultFlushEvery records, then one final short chunk).
func encodeJournal(recs []Record) []byte {
	out := append([]byte(nil), magicV2...)
	for len(recs) > 0 {
		n := min(DefaultFlushEvery, len(recs))
		out = colenc.AppendFrame(out, appendChunkV2(nil, recs[:n]))
		recs = recs[n:]
	}
	return out
}

// ConvertJournal upgrades the v1 campaign journal in dir to v2, so the
// campaign can resume. The conversion is refused on a torn journal —
// convert must never silently discard bytes a resume would have
// surfaced as torn; Open the campaign first (it drops the tail before
// refusing v1 with ErrJournalV1). The rewrite is verified (re-replayed
// and compared record-for-record against the source) before being
// published atomically and durably over the old journal, so a crash at
// any point leaves either the old or the new journal intact, never a
// hybrid. A journal already in v2 is left untouched.
func ConvertJournal(dir string) (ConvertInfo, error) {
	_, st, err := Load(dir)
	if err != nil {
		return ConvertInfo{}, err
	}
	if st.Torn {
		return ConvertInfo{}, fmt.Errorf("campaign: journal in %s has a torn tail; resume the campaign (or Open it) before converting", dir)
	}
	if st.Format == 0 {
		// Empty journal: no bytes to sniff. It is a valid (empty) v1
		// journal as it stands.
		st.Format = FormatJSONL
	}
	info := ConvertInfo{From: st.Format, To: FormatV2, Records: len(st.Records), OldBytes: st.ValidBytes}
	if st.Format == FormatV2 {
		info.NewBytes = st.ValidBytes
		return info, nil
	}
	nb := encodeJournal(st.Records)
	// Verify before publishing: the new bytes must replay to exactly
	// the records the old journal held — a conversion is only a
	// conversion if replay cannot tell (beyond the format tag).
	got := Replay(nb)
	if got.Torn || len(got.Records) != len(st.Records) {
		return ConvertInfo{}, fmt.Errorf("campaign: conversion self-check failed (torn=%v records=%d want %d)", got.Torn, len(got.Records), len(st.Records))
	}
	for i, r := range got.Records {
		if r.Seq != st.Records[i].Seq || r.Event != st.Records[i].Event {
			return ConvertInfo{}, fmt.Errorf("campaign: conversion self-check failed at record %d", i+1)
		}
	}
	if err := PublishFile(filepath.Join(dir, JournalFile), nb); err != nil {
		return ConvertInfo{}, fmt.Errorf("campaign: %w", err)
	}
	info.NewBytes = int64(len(nb))
	return info, nil
}
