package core

// PerMigrationEntries exposes, to the external tests that can drive a
// whole migration (runc imports this package), how many entries each
// daemon map keyed by migration ID holds. Every per-migration map
// belongs in this list.
func (d *Daemon) PerMigrationEntries() map[string]int {
	return map[string]int{
		"suspendedFor":  len(d.suspendedFor),
		"pendingResume": len(d.pendingResume),
		"staging":       len(d.staging),
	}
}
