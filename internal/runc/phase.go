package runc

import (
	"fmt"

	"migrrdma/internal/metrics"
	"migrrdma/internal/task"
)

// phase is one step of the migration workflow (Fig. 2b): a named run
// action plus an optional compensation that undoes it when a later
// phase fails.
type phase struct {
	// name is the stage announced via Migrator.setStage right before
	// run; it also keys per-phase error wrapping, the stage event a
	// listener may refuse, and the migrations_aborted metric label.
	name string
	// commit marks the point of no return: once a commit phase ran,
	// partners talk to the destination and rolling back would strand
	// them, so later failures are surfaced without unwinding.
	commit bool
	run    func() error
	// compensate undoes the phase's effects. Compensations must be
	// idempotent and safe after a partial run: the failing phase's own
	// compensation runs too, before those of the phases preceding it.
	compensate func()
}

// runPhases drives the workflow. A phase fails when its run does, or
// when the listener refuses its opening stage event (the one place an
// Emit's error is read). On a failure before the commit point it
// unwinds: the compensations of the failing phase and of every
// completed phase run in reverse order, the abort is counted in the
// metrics registry, the stage moves to "aborted", and the error comes
// back wrapped with the failing phase. Past the commit point the error
// is wrapped and annotated but nothing is unwound.
func (m *Migrator) runPhases(p *task.Process, phases []phase) error {
	committed := false
	for i, ph := range phases {
		err := m.setStage(ph.name)
		if err == nil {
			err = ph.run()
		}
		if err == nil {
			if ph.commit {
				committed = true
			}
			continue
		}
		wrapped := fmt.Errorf("migrate %s/proc %s: phase %s: %w", m.ID, p.Name, ph.name, err)
		if committed {
			return fmt.Errorf("%w (past commit point, not rolled back)", wrapped)
		}
		if reg := m.C.Host.Metrics; reg != nil {
			reg.Counter("migr", "migrations_aborted",
				metrics.L("proc", p.Name, "mig", m.ID, "phase", ph.name)).Inc()
		}
		for j := i; j >= 0; j-- {
			if phases[j].compensate != nil {
				phases[j].compensate()
			}
		}
		m.setStage("aborted")
		return wrapped
	}
	return nil
}
