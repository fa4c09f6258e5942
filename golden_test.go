package scibench_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/cluster"
	"repro/internal/suite"
)

// mpibenchDefaultReportSHA256 is the SHA-256 of the report `mpibench
// -seed 1` prints at its defaults. It is pinned across commits, not
// only across worker counts: a change to how machines are built or how
// the sweep draws its samples that moves a single report byte fails
// here, and must re-pin it deliberately.
const mpibenchDefaultReportSHA256 = "8d1fc45299baecd727770690e4c5127b755e273a3c73fde00d0fd1128ba02371"

func TestMPIBenchDefaultReportGolden(t *testing.T) {
	res, err := suite.Run(context.Background(), suite.Config{
		Cluster: cluster.PizDaint(),
		Ranks:   []int{2, 4, 8, 16, 32},
		Bytes:   []int{8, 1024},
		RelErr:  0.05,
		Seed:    1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != mpibenchDefaultReportSHA256 {
		t.Errorf("mpibench default report SHA-256 = %s, want %s", got, mpibenchDefaultReportSHA256)
	}
}
