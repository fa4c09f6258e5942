// Journal upgrade: the `scibench convert` subcommand rewrites a
// campaign's read-only v1 JSONL journal in the v2 chunked binary
// encoding, so the campaign can resume. The conversion is atomic (temp
// file + rename), verified by re-replaying the rewritten journal
// record-for-record against the original, and identity-preserving: the
// campaign resumes bit-for-bit afterwards, because the format is
// storage, not part of the recorded experiment.
package main

import (
	"flag"
	"fmt"

	scibench "repro"
)

func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	dir := fs.Arg(0)
	if dir == "" {
		return fmt.Errorf("usage: scibench convert <campaign-dir>")
	}
	info, err := scibench.ConvertCampaignJournal(dir)
	if err != nil {
		return err
	}
	if info.From == info.To {
		fmt.Printf("journal already %s (%d record(s), %d bytes) — nothing to do\n",
			info.To, info.Records, info.OldBytes)
		return nil
	}
	ratio := 0.0
	if info.NewBytes > 0 {
		ratio = float64(info.OldBytes) / float64(info.NewBytes)
	}
	fmt.Printf("converted %s → %s: %d record(s), %d → %d bytes (%.1f×), verified by replay\n",
		info.From, info.To, info.Records, info.OldBytes, info.NewBytes, ratio)
	return nil
}
