//go:build !lockcheck

// Without -tags lockcheck the checker compiles to empty inlinable calls;
// see lockcheck.go for the real implementation and rules.go for the rules
// it enforces.
package lockcheck

// Enabled reports whether the checker is compiled in.
const Enabled = false

// Acquire is a no-op without the lockcheck build tag.
func Acquire(obj any, rank Rank) {}

// Acquired is a no-op without the lockcheck build tag.
func Acquired(obj any, rank Rank) {}

// Release is a no-op without the lockcheck build tag.
func Release(obj any, rank Rank) {}

// EnableWaitGraph is a no-op without the lockcheck build tag.
func EnableWaitGraph() {}

// DisableWaitGraph is a no-op without the lockcheck build tag.
func DisableWaitGraph() {}

// WaitGraphReport returns nil without the lockcheck build tag.
func WaitGraphReport() []string { return nil }
