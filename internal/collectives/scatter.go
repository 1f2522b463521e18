package collectives

import (
	"fmt"

	"apgas/internal/core"
)

// Scatter distributes the root member's chunks: member i receives
// send[i]. send is ignored at non-root members and must have exactly
// Size() chunks at the root.
func Scatter[T any](t *Team, c *core.Ctx, rootRank int, send [][]T) []T {
	r := begin[T](t, c)
	if r.me == rootRank && len(send) != r.n {
		panic(fmt.Sprintf("collectives: Scatter needs %d chunks, got %d", r.n, len(send)))
	}
	if t.mode == ModeNative {
		var contrib any
		if r.me == rootRank {
			chunks := make([]any, r.n)
			for i := range send {
				chunks[i] = clone(send[i])
			}
			contrib = chunks
		}
		res := t.shared.rendezvous(c, r.me, r.seq, contrib, func(slots []any) any {
			return slots[rootRank]
		})
		return clone(res.([]any)[r.me].([]T))
	}
	defer r.sync() // the chunks leave from the root's own buffers
	if r.me != rootRank {
		return r.recv(phaseData, rootRank)
	}
	for d := 1; d < r.n; d++ {
		dst := (r.me + d) % r.n
		r.send(dst, send[dst])
	}
	return r.keep(send[r.me])
}

// Gather collects every member's vals at the root member, in rank order;
// non-root members receive nil.
func Gather[T any](t *Team, c *core.Ctx, rootRank int, vals []T) [][]T {
	r := begin[T](t, c)
	if t.mode == ModeNative {
		res := t.shared.rendezvous(c, r.me, r.seq, clone(vals), func(slots []any) any {
			return slots
		})
		if r.me != rootRank {
			return nil
		}
		out := make([][]T, r.n)
		for i, slot := range res.([]any) {
			out[i] = clone(slot.([]T))
		}
		return out
	}
	defer r.sync() // nobody leaves before the root has everything
	if r.me != rootRank {
		r.send(rootRank, vals)
		return nil
	}
	out := make([][]T, r.n)
	out[r.me] = r.keep(vals)
	r.collect(out)
	return out
}
