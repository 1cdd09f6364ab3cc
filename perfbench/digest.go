package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"

	"dsisim/internal/machine"
	"dsisim/internal/soak"
)

// defaultSeed is the seed whose digests are committed in expectedDigest.
const defaultSeed = 1

// expectedDigest holds each workload's simulated-statistics digest at
// defaultSeed. The digests check bit-identity of the simulation with the
// commit that recorded them; they say nothing about whether the model
// matches real hardware, which it is not validated against. A change that
// is meant to move only host speed must leave every one of them unchanged.
var expectedDigest = map[string]string{
	"em3d-V-8p":         "82ed98a858cc4eda12ef9a784508de3b",
	"lockconvoy-SC-32p": "ebae7ddc8d85478472a0d595c09afe07",
	"soak-campaign":     "33f3764fc97da06f40b5f91997208e52",
	"cached-mix":        "d4d9e5364b43bf8ac02dd9a6882405d4",
}

func hexSum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:32] }

// put writes v in fixed-size little-endian form. Every value passed here
// is made of fixed-size fields only, so the write cannot fail.
func put(h hash.Hash, v any) {
	if err := binary.Write(h, binary.LittleEndian, v); err != nil {
		panic(fmt.Sprintf("digest: %v", err))
	}
}

// resultDigest covers the simulated statistics of one run: total and
// measured time, messages by kind, per-node cache and directory counters,
// the execution-time breakdown, and the kernel's event count.
func resultDigest(r *machine.Result) string {
	h := sha256.New()
	put(h, int64(r.TotalTime))
	put(h, int64(r.ExecTime))
	put(h, r.Messages.ByKind)
	put(h, r.Cache)
	put(h, r.Dir)
	put(h, r.Breakdown.Cycles)
	put(h, r.Kernel.Events)
	return hexSum(h)
}

// verdictDigest covers a set of soak verdicts in cell order: everything a
// verdict records except Cached, which is provenance, not outcome.
func verdictDigest(vs []soak.Verdict) string {
	s := append([]soak.Verdict(nil), vs...)
	sort.Slice(s, func(i, j int) bool { return s[i].Cell < s[j].Cell })
	h := sha256.New()
	for _, v := range s {
		fmt.Fprintf(h, "%d|%s|%s|%s|%d|%s|%d|%d|%s\n",
			v.Cell, v.Workload, v.Protocol, v.Template, v.Seed, v.Status, v.Events, v.Cycles, v.Err)
	}
	return hexSum(h)
}

// cellSetDigest covers a set of (cell name, result digest) pairs,
// independent of the order they were added in.
func cellSetDigest(cells map[string]string) string {
	names := make([]string, 0, len(cells))
	for n := range cells {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		fmt.Fprintf(h, "%s=%s\n", n, cells[n])
	}
	return hexSum(h)
}

// checkExpected compares a workload's digest at defaultSeed with the
// committed value. Other seeds have no committed value; there the
// workloads check that repeating a cell reproduces its digest.
func checkExpected(workload string, seed uint64, got string) error {
	if seed != defaultSeed {
		return nil
	}
	if want := expectedDigest[workload]; got != want {
		return fmt.Errorf("%s: digest %s at seed %d, committed %s", workload, got, seed, want)
	}
	return nil
}
