package hpl

import (
	"fmt"
	"math"
	"time"

	"apgas/internal/collectives"
	"apgas/internal/core"
	"apgas/internal/kernels/linalg"
)

// Config describes one Global HPL run.
type Config struct {
	// N is the matrix order; the solved system is A x = b with the b
	// column appended to the distributed matrix, as in HPL.
	N int
	// NB is the block size (the paper used 360 at scale).
	NB int
	// P, Q is the process grid; P*Q must equal the runtime's place
	// count. Zero lets ChooseGrid pick.
	P, Q int
	// Seed drives the reproducible random matrix.
	Seed uint64
	// Mode selects the collectives implementation.
	Mode collectives.Mode
}

// Result is one run's outcome.
type Result struct {
	N, NB, P, Q int
	Seconds     float64
	Gflops      float64
	// Residual is the scaled HPL residual; values below 16 pass.
	Residual float64
}

// Flops returns the nominal HPL operation count for order n.
func Flops(n int) float64 {
	fn := float64(n)
	return 2.0/3.0*fn*fn*fn + 3.0/2.0*fn*fn
}

// element is the reproducible matrix generator: entry (i, j) of [A|b] in
// [-0.5, 0.5), a pure function of (seed, i, j).
func element(seed uint64, i, j int) float64 {
	z := seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15 ^ (uint64(j)+1)*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0x94d049bb133111eb
	z ^= z >> 27
	z *= 0x9e3779b97f4a7c15
	z ^= z >> 31
	return float64(z>>11)/float64(1<<53) - 0.5
}

// local is one place's fragment of the distributed [A|b] matrix.
type local struct {
	pr, pc       int
	lrows, lcols int
	a            []float64 // lrows x lcols row-major
}

func (l *local) row(lr int) []float64 { return l.a[lr*l.lcols : (lr+1)*l.lcols] }

// panelMsg is what the panel owner column broadcasts along process rows.
type panelMsg struct {
	Piv   []int     // absolute global pivot rows, one per panel column
	L     []float64 // the root's local panel block, lrows x width
	Width int
}

// pivotCand is the column-team pivot-search reduction element: the largest
// |value| wins and carries its panel row along, so the winning row is
// known everywhere without a second broadcast (the HPL pdmxswp idiom).
type pivotCand struct {
	Val float64 // |candidate|
	Gi  int     // global row of the candidate
	Row []float64
}

// Run factors and solves the system, returning performance and the HPL
// residual.
func Run(rt *core.Runtime, cfg Config) (Result, error) {
	places := rt.NumPlaces()
	if cfg.P == 0 || cfg.Q == 0 {
		cfg.P, cfg.Q = ChooseGrid(places)
	}
	if cfg.P*cfg.Q != places {
		return Result{}, fmt.Errorf("hpl: grid %dx%d needs %d places, runtime has %d",
			cfg.P, cfg.Q, cfg.P*cfg.Q, places)
	}
	if cfg.NB <= 0 || cfg.N <= 0 {
		return Result{}, fmt.Errorf("hpl: bad N=%d NB=%d", cfg.N, cfg.NB)
	}
	d := Dist{N: cfg.N, Ncols: cfg.N + 1, NB: cfg.NB, P: cfg.P, Q: cfg.Q}
	if err := d.Validate(); err != nil {
		return Result{}, err
	}

	// Teams: one per process row and per process column.
	rowTeams := make([]*collectives.Team, cfg.P)
	colTeams := make([]*collectives.Team, cfg.Q)
	defer func() {
		for _, t := range append(rowTeams, colTeams...) {
			if t != nil {
				t.Close()
			}
		}
	}()
	for pr := 0; pr < cfg.P; pr++ {
		members := make([]core.Place, cfg.Q)
		for pc := 0; pc < cfg.Q; pc++ {
			members[pc] = core.Place(pr*cfg.Q + pc)
		}
		g, err := core.NewPlaceGroup(members)
		if err != nil {
			return Result{}, err
		}
		rowTeams[pr] = collectives.New(rt, g, cfg.Mode)
	}
	for pc := 0; pc < cfg.Q; pc++ {
		members := make([]core.Place, cfg.P)
		for pr := 0; pr < cfg.P; pr++ {
			members[pr] = core.Place(pr*cfg.Q + pc)
		}
		g, err := core.NewPlaceGroup(members)
		if err != nil {
			return Result{}, err
		}
		colTeams[pc] = collectives.New(rt, g, cfg.Mode)
	}

	locals := core.NewPlaceLocal(rt, func(p core.Place) *local {
		pr, pc := int(p)/cfg.Q, int(p)%cfg.Q
		l := &local{pr: pr, pc: pc, lrows: d.LocalRows(pr), lcols: d.LocalCols(pc)}
		l.a = make([]float64, l.lrows*l.lcols)
		for lr := 0; lr < l.lrows; lr++ {
			gi := d.GlobalRow(pr, lr)
			row := l.row(lr)
			for lc := 0; lc < l.lcols; lc++ {
				row[lc] = element(cfg.Seed, gi, d.GlobalCol(pc, lc))
			}
		}
		return l
	})
	defer locals.Free()

	var seconds float64
	var solution []float64
	err := rt.Run(func(ctx *core.Ctx) {
		// Materialize every fragment before timing (tree broadcast).
		world := core.WorldGroup(rt)
		if err := world.Broadcast(ctx, func(c *core.Ctx) { locals.Get(c) }); err != nil {
			panic(err)
		}
		start := time.Now()
		err := ctx.FinishPragma(core.PatternSPMD, func(c *core.Ctx) {
			for _, p := range c.Places() {
				c.AtAsync(p, func(cc *core.Ctx) {
					me := locals.Get(cc)
					factor(cc, d, cfg, me, locals, rowTeams, colTeams)
					x := solveDistributed(cc, d, me, rowTeams, colTeams)
					if cc.Place() == 0 {
						solution = x
					}
				})
			}
		})
		if err != nil {
			panic(err)
		}
		seconds = time.Since(start).Seconds()
	})
	if err != nil {
		return Result{}, fmt.Errorf("hpl: %w", err)
	}

	resid := residual(cfg, solution)
	return Result{
		N: cfg.N, NB: cfg.NB, P: cfg.P, Q: cfg.Q,
		Seconds:  seconds,
		Gflops:   Flops(cfg.N) / seconds / 1e9,
		Residual: resid,
	}, nil
}

// factor is the per-place SPMD body: the right-looking blocked LU loop.
func factor(ctx *core.Ctx, d Dist, cfg Config, me *local,
	locals core.PlaceLocal[*local], rowTeams, colTeams []*collectives.Team) {

	rowTeam := rowTeams[me.pr]
	colTeam := colTeams[me.pc]
	nBlocks := (d.N + d.NB - 1) / d.NB

	for k := 0; k < nBlocks; k++ {
		gk := k * d.NB
		nbk := d.NB
		if gk+nbk > d.N {
			nbk = d.N - gk
		}
		pcK := k % d.Q
		prK := k % d.P

		// 1. Distributed recursive-free panel factorization on process
		// column pcK, with the pivot search as a column-team reduction.
		var piv []int
		if me.pc == pcK {
			piv = panelFactor(ctx, d, me, locals, colTeam, gk, nbk)
		}

		// 2. Row broadcast: pivots and the panel's L columns reach every
		// process column (root = the pcK member of each row team).
		var panel panelMsg
		if me.pc == pcK {
			panel = buildPanelMsg(d, me, piv, gk, nbk)
		}
		got := collectives.Broadcast(rowTeam, ctx, pcK, []panelMsg{panel})
		panel = got[0]

		// 3. Apply the pivot swaps to this place's non-panel columns.
		applyPivots(ctx, d, me, locals, colTeam, panel.Piv, gk, nbk, me.pc == pcK)

		// 4. Triangular solve for the U block row at process row prK.
		ljTail := d.FirstLocalColAtOrAfter(me.pc, gk+nbk)
		trailCols := me.lcols - ljTail
		var u12 []float64
		if me.pr == prK && trailCols > 0 {
			lrK := d.LocalRow(gk)
			l11 := extractL11(d, panel, lrK, nbk)
			u12 = make([]float64, nbk*trailCols)
			for r := 0; r < nbk; r++ {
				copy(u12[r*trailCols:(r+1)*trailCols], me.row(lrK + r)[ljTail:])
			}
			linalg.TrsmLLNU(nbk, trailCols, l11, nbk, u12, trailCols)
			for r := 0; r < nbk; r++ {
				copy(me.row(lrK + r)[ljTail:], u12[r*trailCols:(r+1)*trailCols])
			}
		}

		// 5. Column broadcast of U12 (root = the prK member).
		u12 = collectives.Broadcast(colTeam, ctx, prK, u12)

		// 6. Local trailing update: A22 -= L21 * U12.
		lrTail := d.FirstLocalRowAtOrAfter(me.pr, gk+nbk)
		if trailCols > 0 && me.lrows-lrTail > 0 {
			linalg.GemmNN(me.lrows-lrTail, trailCols, nbk, -1,
				panel.L[lrTail*panel.Width:], panel.Width,
				u12, trailCols,
				1, me.a[lrTail*me.lcols+ljTail:], me.lcols)
		}
	}
}

// panelFactor factors panel block column k (global columns [gk, gk+nbk))
// across the process column team and returns the pivot rows. Swaps are
// applied to the panel columns only; applyPivots later covers the rest.
func panelFactor(ctx *core.Ctx, d Dist, me *local,
	locals core.PlaceLocal[*local], colTeam *collectives.Team, gk, nbk int) []int {

	ljPanel := d.LocalCol(gk) // panel columns are locally contiguous
	piv := make([]int, nbk)
	maxOp := func(a, b pivotCand) pivotCand {
		if b.Val > a.Val || (b.Val == a.Val && b.Gi < a.Gi) {
			return b
		}
		return a
	}

	for jj := 0; jj < nbk; jj++ {
		gj := gk + jj
		// Local candidate: the largest |a(gi, gj)| over owned rows >= gj.
		cand := pivotCand{Val: -1, Gi: d.N}
		for lr := d.FirstLocalRowAtOrAfter(me.pr, gj); lr < me.lrows; lr++ {
			v := math.Abs(me.row(lr)[ljPanel+jj])
			if v > cand.Val {
				cand.Val = v
				cand.Gi = d.GlobalRow(me.pr, lr)
			}
		}
		if cand.Gi < d.N {
			lr := d.LocalRow(cand.Gi)
			cand.Row = append([]float64(nil), me.row(lr)[ljPanel:ljPanel+nbk]...)
		}
		win := collectives.AllReduce(colTeam, ctx, []pivotCand{cand}, maxOp)[0]
		piv[jj] = win.Gi

		// Swap panel rows gj <-> win.Gi. The winning row's content
		// traveled with the reduction; only the displaced row gj must
		// move, from its owner to the pivot row's owner.
		if win.Gi != gj {
			prJ, prW := d.RowOwner(gj), d.RowOwner(win.Gi)
			if me.pr == prJ {
				lrJ := d.LocalRow(gj)
				old := append([]float64(nil), me.row(lrJ)[ljPanel:ljPanel+nbk]...)
				copy(me.row(lrJ)[ljPanel:ljPanel+nbk], win.Row)
				if prW == prJ {
					lrW := d.LocalRow(win.Gi)
					copy(me.row(lrW)[ljPanel:ljPanel+nbk], old)
				} else {
					dst := core.Place(prW*d.Q + me.pc)
					gi := win.Gi
					err := ctx.FinishPragma(core.PatternAsync, func(c *core.Ctx) {
						c.AtDirect(dst, 8*len(old), func(cr *core.Ctx) {
							them := locals.Get(cr)
							copy(them.row(d.LocalRow(gi))[ljPanel:ljPanel+nbk], old)
						})
					})
					if err != nil {
						panic(err)
					}
				}
			}
		}
		colTeam.Barrier(ctx)

		// Eliminate below the pivot in the remaining panel columns.
		dval := win.Row[jj]
		start := d.FirstLocalRowAtOrAfter(me.pr, gj+1)
		for lr := start; lr < me.lrows; lr++ {
			row := me.row(lr)
			if dval != 0 {
				l := row[ljPanel+jj] / dval
				row[ljPanel+jj] = l
				for t := jj + 1; t < nbk; t++ {
					row[ljPanel+t] -= l * win.Row[t]
				}
			}
		}
	}
	return piv
}

// buildPanelMsg packages this place's panel columns (now holding L and the
// panel's U rows) plus the pivot list for the row broadcast.
func buildPanelMsg(d Dist, me *local, piv []int, gk, nbk int) panelMsg {
	ljPanel := d.LocalCol(gk)
	L := make([]float64, me.lrows*nbk)
	for lr := 0; lr < me.lrows; lr++ {
		copy(L[lr*nbk:(lr+1)*nbk], me.row(lr)[ljPanel:ljPanel+nbk])
	}
	return panelMsg{Piv: piv, L: L, Width: nbk}
}

// extractL11 pulls the nbk x nbk unit-lower block of the panel starting at
// local row lrK.
func extractL11(d Dist, panel panelMsg, lrK, nbk int) []float64 {
	l11 := make([]float64, nbk*nbk)
	for r := 0; r < nbk; r++ {
		copy(l11[r*nbk:(r+1)*nbk], panel.L[(lrK+r)*panel.Width:(lrK+r)*panel.Width+nbk])
	}
	return l11
}

// applyPivots replays the panel's swap sequence on this place's local
// columns (all of them, except the panel columns when this place is in the
// panel's process column — those were swapped during factorization). The
// block-row owner of block k coordinates: it gathers every touched row
// segment in its process column, applies the sequence, and writes back —
// turning O(NB) sequential exchanges into one gather/scatter per block,
// with asynchronous copies doing the row fetches as in the paper's code.
func applyPivots(ctx *core.Ctx, d Dist, me *local,
	locals core.PlaceLocal[*local], colTeam *collectives.Team,
	piv []int, gk, nbk int, inPanelColumn bool) {

	prK := (gk / d.NB) % d.P
	coordinator := me.pr == prK

	// Entry barrier: the coordinator is about to read and rewrite rows
	// owned by every member of this process column, so all of them must
	// have finished the previous iteration's trailing update first. (The
	// row broadcast that precedes this phase only synchronizes each place
	// with the panel column, not with its column peers.)
	colTeam.Barrier(ctx)

	// Column segments to operate on: [0, skipLo) and [skipHi, lcols).
	skipLo, skipHi := me.lcols, me.lcols
	if inPanelColumn {
		skipLo = d.LocalCol(gk)
		skipHi = skipLo + nbk
	}

	if coordinator {
		// Gather all touched rows: the block-k rows (local) plus every
		// distinct pivot target row (possibly remote).
		type stagedRow struct {
			vals  []float64
			owner int // process row; -1 for locally owned
		}
		stage := make(map[int]*stagedRow)
		fetch := func(gi int) *stagedRow {
			if r, ok := stage[gi]; ok {
				return r
			}
			pr := d.RowOwner(gi)
			r := &stagedRow{owner: pr}
			if pr == me.pr {
				r.vals = append([]float64(nil), me.row(d.LocalRow(gi))...)
				r.owner = -1
			} else {
				src := core.Place(pr*d.Q + me.pc)
				gi := gi
				r.vals = core.AtEval(ctx, src, func(c *core.Ctx) []float64 {
					them := locals.Get(c)
					return append([]float64(nil), them.row(d.LocalRow(gi))...)
				})
			}
			stage[gi] = r
			return r
		}
		for jj := 0; jj < nbk; jj++ {
			gj, gp := gk+jj, piv[jj]
			if gj == gp {
				continue
			}
			a, b := fetch(gj), fetch(gp)
			a.vals, b.vals = b.vals, a.vals
		}
		// Write back, skipping the panel segment.
		writeSeg := func(dst, src []float64) {
			copy(dst[:skipLo], src[:skipLo])
			if skipHi < len(dst) {
				copy(dst[skipHi:], src[skipHi:])
			}
		}
		for gi, r := range stage {
			if r.owner < 0 {
				writeSeg(me.row(d.LocalRow(gi)), r.vals)
				continue
			}
			dst := core.Place(r.owner*d.Q + me.pc)
			gi, vals := gi, r.vals
			sLo, sHi := skipLo, skipHi
			err := ctx.FinishPragma(core.PatternAsync, func(c *core.Ctx) {
				c.AtDirect(dst, 8*len(vals), func(cr *core.Ctx) {
					them := locals.Get(cr)
					row := them.row(d.LocalRow(gi))
					copy(row[:sLo], vals[:sLo])
					if sHi < len(row) {
						copy(row[sHi:], vals[sHi:])
					}
				})
			})
			if err != nil {
				panic(err)
			}
		}
	}
	colTeam.Barrier(ctx)
}
