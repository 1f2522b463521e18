package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"apgas/internal/obs"
	"apgas/internal/x10rt"
)

// killableRuntime builds a runtime over a ChanTransport (the only
// in-process transport with KillPlace) with pattern checks on.
func killableRuntime(t *testing.T, places int) (*Runtime, *x10rt.ChanTransport) {
	t.Helper()
	tr, err := x10rt.NewChanTransport(x10rt.ChanOptions{Places: places})
	if err != nil {
		t.Fatalf("NewChanTransport: %v", err)
	}
	rt, err := NewRuntime(Config{Places: places, Transport: tr, OwnTransport: true,
		CheckPatterns: true})
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	return rt, tr
}

// kill severs place p and waits until the runtime has processed the death.
func kill(t *testing.T, rt *Runtime, tr *x10rt.ChanTransport, p Place) {
	t.Helper()
	if err := tr.KillPlace(int(p)); err != nil {
		t.Fatalf("KillPlace(%d): %v", p, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !rt.PlaceDead(p) {
		if time.Now().After(deadline) {
			t.Fatalf("runtime never observed death of place %d", p)
		}
		time.Sleep(time.Millisecond)
	}
}

// runWithTimeout guards against the exact failure mode under test: a
// finish that hangs instead of surfacing the death.
func runWithTimeout(t *testing.T, rt *Runtime, main func(*Ctx)) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- rt.Run(main) }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not quiesce after place death (finish wedged)")
		return nil
	}
}

// holdFirstCtl holds the first finish-control message sent by place
// from until release is closed, then hands it to the wrapped transport.
type holdFirstCtl struct {
	x10rt.Transport
	from    int
	holding atomic.Bool
	held    chan struct{}
	release chan struct{}
}

func (h *holdFirstCtl) Send(src, dst int, id x10rt.HandlerID, payload any, bytes int, class x10rt.Class) error {
	if id == x10rt.HandlerFinishCtl && src == h.from && h.holding.CompareAndSwap(false, true) {
		close(h.held)
		<-h.release
	}
	return h.Transport.Send(src, dst, id, payload, bytes, class)
}

// TestSendAfterCloseIsCountedDrop: a FINISH_DEFAULT proxy's quiescence
// snapshot is held in the transport while the death of an uninvolved
// place makes adoption re-send it, so Run returns and the runtime closes
// with the first copy still on its way — the straggler of a kill run.
// When it is released its send finds the transport closed: a drop,
// counted in core.sends_after_close, not a panic.
func TestSendAfterCloseIsCountedDrop(t *testing.T) {
	inner, err := x10rt.NewChanTransport(x10rt.ChanOptions{Places: 3})
	if err != nil {
		t.Fatal(err)
	}
	tr := &holdFirstCtl{Transport: inner, from: 1, held: make(chan struct{}), release: make(chan struct{})}
	o := obs.New()
	rt, err := NewRuntime(Config{Places: 3, Transport: tr, OwnTransport: true, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		<-tr.held
		rt.PlaceDeath(2)
	}()
	if err := runWithTimeout(t, rt, func(ctx *Ctx) {
		ctx.AtAsync(1, func(*Ctx) {})
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	rt.Close()
	close(tr.release)
	deadline := time.Now().Add(10 * time.Second)
	for o.Metrics.Snapshot().Counter("core.sends_after_close") != 1 {
		if time.Now().After(deadline) {
			t.Fatal("the held snapshot's send after Close was not counted as a drop")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSpawnToDeadPlaceFailsFast: a spawn toward a pre-killed place
// surfaces ErrPlaceDead on the governing finish without hanging.
func TestSpawnToDeadPlaceFailsFast(t *testing.T) {
	for _, pattern := range []Pattern{PatternDefault, PatternDense, PatternAsync, PatternSPMD} {
		t.Run(pattern.String(), func(t *testing.T) {
			rt, tr := killableRuntime(t, 4)
			defer rt.Close()
			err := runWithTimeout(t, rt, func(ctx *Ctx) {
				kill(t, rt, tr, 2)
				ferr := ctx.FinishPragma(pattern, func(c *Ctx) {
					c.AtAsync(2, func(*Ctx) { t.Error("activity ran at dead place") })
				})
				if !errors.Is(ferr, ErrPlaceDead) {
					t.Errorf("finish error = %v, want ErrPlaceDead", ferr)
				}
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
		})
	}
}

// TestMidFlightKillQuiesces: a place dies while holding live governed
// activities; the finish quiesces with ErrPlaceDead instead of waiting
// forever for credits from the victim.
func TestMidFlightKillQuiesces(t *testing.T) {
	for _, pattern := range []Pattern{PatternDefault, PatternDense, PatternSPMD} {
		t.Run(pattern.String(), func(t *testing.T) {
			rt, tr := killableRuntime(t, 4)
			defer rt.Close()
			started := make(chan struct{})
			release := make(chan struct{})
			err := runWithTimeout(t, rt, func(ctx *Ctx) {
				ferr := ctx.FinishPragma(pattern, func(c *Ctx) {
					c.AtAsync(2, func(cc *Ctx) {
						body := func(*Ctx) {
							close(started)
							<-release
						}
						if pattern == PatternSPMD {
							// SPMD remotes wrap nested work in a finish.
							_ = cc.Finish(func(ccc *Ctx) { ccc.Async(body) })
						} else {
							cc.Async(body)
						}
					})
					<-started
					kill(t, rt, tr, 2)
					close(release)
				})
				if !errors.Is(ferr, ErrPlaceDead) {
					t.Errorf("finish error = %v, want ErrPlaceDead", ferr)
				}
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
		})
	}
}

// TestHereKillQuiesces: the FINISH_HERE round-trip partner dies before
// sending the response; the token it carried is forgiven.
func TestHereKillQuiesces(t *testing.T) {
	rt, tr := killableRuntime(t, 4)
	defer rt.Close()
	arrived := make(chan struct{})
	release := make(chan struct{})
	err := runWithTimeout(t, rt, func(ctx *Ctx) {
		ferr := ctx.FinishPragma(PatternHere, func(c *Ctx) {
			home := c.Place()
			c.AtAsync(2, func(cc *Ctx) {
				close(arrived)
				<-release
				// The response the protocol expects; the place is dead by
				// now, so the send is dropped by the transport.
				cc.AtAsync(home, func(*Ctx) {})
			})
			<-arrived
			kill(t, rt, tr, 2)
			close(release)
		})
		if !errors.Is(ferr, ErrPlaceDead) {
			t.Errorf("finish error = %v, want ErrPlaceDead", ferr)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestUntouchedFinishUnaffected: a finish whose activities never involve
// the victim completes cleanly, with no spurious ErrPlaceDead.
func TestUntouchedFinishUnaffected(t *testing.T) {
	rt, tr := killableRuntime(t, 4)
	defer rt.Close()
	var ran atomic.Int64
	err := runWithTimeout(t, rt, func(ctx *Ctx) {
		kill(t, rt, tr, 3)
		ferr := ctx.Finish(func(c *Ctx) {
			for p := Place(0); p < 3; p++ {
				c.AtAsync(p, func(*Ctx) { ran.Add(1) })
			}
		})
		if ferr != nil {
			t.Errorf("untouched finish error = %v, want nil", ferr)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := ran.Load(); got != 3 {
		t.Fatalf("ran %d activities, want 3", got)
	}
}

// TestSurvivorConservation: after a kill, every surviving place's
// begun/completed pair balances even though the global per-pattern
// totals no longer do.
func TestSurvivorConservation(t *testing.T) {
	rt, tr := killableRuntime(t, 4)
	defer rt.Close()
	err := runWithTimeout(t, rt, func(ctx *Ctx) {
		_ = ctx.Finish(func(c *Ctx) {
			for p := Place(1); p < 4; p++ {
				c.AtAsync(p, func(cc *Ctx) {
					cc.Async(func(*Ctx) {})
				})
			}
		})
		kill(t, rt, tr, 2)
		_ = ctx.Finish(func(c *Ctx) {
			for p := Place(0); p < 4; p++ {
				c.AtAsync(p, func(*Ctx) {})
			}
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, pc := range rt.PlaceActivityCounts() {
		if rt.PlaceDead(pc.Place) {
			continue
		}
		if !pc.Balanced() {
			t.Errorf("place %d: begun=%d completed=%d", pc.Place, pc.Begun, pc.Completed)
		}
	}
}

// TestPlaceDeathIdempotent: repeated death reports collapse to one
// adoption pass and one subscriber notification.
func TestPlaceDeathIdempotent(t *testing.T) {
	rt, _ := killableRuntime(t, 4)
	defer rt.Close()
	var calls atomic.Int64
	rt.NotifyPlaceDeath(func(Place) { calls.Add(1) })
	rt.PlaceDeath(2)
	rt.PlaceDeath(2)
	rt.PlaceDeath(2)
	if got := calls.Load(); got != 1 {
		t.Fatalf("death subscriber called %d times, want 1", got)
	}
	if got := rt.DeadPlaces(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("DeadPlaces = %v, want [2]", got)
	}
}
