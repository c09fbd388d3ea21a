// The pre-copy convergence controller: a dirty-page floor, an iteration
// cap, and a dirty-rate model that keeps iterating only while the
// predicted final-transfer time still shrinks by a worthwhile factor
// per round. The monolithic preset is the floor and the cap alone.
package pagechan

import "time"

// Convergence defaults. An extra round ships the current dirty set at
// the channel's measured rate while the workload re-dirties pages at
// its own rate; the dirty set after the round is roughly
// dirty × (dirtyRate/sendRate), so that ratio is the per-round shrink
// factor of the predicted final transfer. Below 1−Epsilon the round
// pays for itself; at or above it we stop and take the blackout now.
const (
	DefaultEpsilon  = 0.25
	DefaultMaxIters = 16
)

// Controller decides, round by round, whether another pre-copy
// iteration is worth running. It is pure bookkeeping — no scheduler or
// host access — so it is unit-testable in isolation.
type Controller struct {
	FloorPages int     // converged when the dirty set is at or below this
	MaxIters   int     // hard safety cap on rounds
	Epsilon    float64 // minimum per-round shrink of the predicted final transfer; −Inf asks for none

	iters     int
	haveModel bool
	sendRate  float64 // pages/s the channel moved last round
	dirtyRate float64 // pages/s the workload dirtied last round
}

// NewController returns a controller with the given convergence floor
// and default model knobs.
func NewController(floorPages int) *Controller {
	return &Controller{FloorPages: floorPages, MaxIters: DefaultMaxIters, Epsilon: DefaultEpsilon}
}

// Observe folds one finished round into the model: st is the round the
// channel just streamed, dirtyAfter the dirty-page count measured once
// it completed.
func (c *Controller) Observe(st RoundStats, dirtyAfter int) {
	c.iters++
	if st.Elapsed > 0 && st.PagesDumped > 0 {
		el := float64(st.Elapsed) / float64(time.Second)
		c.sendRate = float64(st.PagesDumped) / el
		c.dirtyRate = float64(dirtyAfter) / el
		c.haveModel = true
	}
}

// Continue reports whether another pre-copy round is worth running
// given the current dirty-page count. Stops when the dirty set has
// shrunk to the floor (converged), at the safety cap, or when the
// model predicts the final-transfer time would no longer shrink by at
// least Epsilon per round — including the diverging case where the
// workload dirties pages faster than the channel can ship them.
func (c *Controller) Continue(dirtyPages int) bool {
	if dirtyPages <= c.FloorPages {
		return false
	}
	if c.iters >= c.MaxIters {
		return false
	}
	if !c.haveModel {
		return true // no model yet: run one round to measure rates
	}
	if c.sendRate <= 0 {
		return false
	}
	return c.dirtyRate/c.sendRate < 1-c.Epsilon
}
