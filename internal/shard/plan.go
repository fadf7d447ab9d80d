// Package shard distributes one sweep across processes. Partition
// splits the cells to run into contiguous balanced ranges, and
// Supervise runs one worker process per range, reads each worker's
// records off its stdout and appends them to the sweep's one journal.
// The pieces compose into the package's contract:
//
//   - workers are ordinary shard-scoped experiments (core.ShardRange)
//     that stream the sealed cell lines a journal would hold; every
//     cell is a pure function of its derived seed, so a respawned
//     worker delivers the same records its dead predecessor would have;
//   - the supervisor checks every line (checksum, range, config, seed)
//     and appends cells in grid order as the prefix fills, so the
//     journal is byte-identical to the one a sequential unsharded sweep
//     writes, and a sharded resume appends the bytes a sequential
//     resume would;
//   - a shard that exhausts its retry budget degrades to typed ERR
//     cells naming the shard; the sweep still completes.
package shard

import (
	"fmt"

	"asmp/internal/core"
)

// Partition splits n cells across k shards into contiguous balanced
// ranges: the first n%k shards hold one extra cell. It is a pure
// function of (n, k). Shards beyond n cells come out empty (Lo == Hi)
// and complete trivially.
func Partition(n, k int) []core.ShardRange {
	if n < 0 || k < 1 {
		panic(fmt.Sprintf("shard: cannot partition %d cells into %d shards", n, k))
	}
	out := make([]core.ShardRange, k)
	size, extra := n/k, n%k
	lo := 0
	for i := range out {
		hi := lo + size
		if i < extra {
			hi++
		}
		out[i] = core.ShardRange{Index: i, Of: k, Lo: lo, Hi: hi}
		lo = hi
	}
	return out
}
