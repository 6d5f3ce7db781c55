// Package commsafety is the analysistest fixture for the commsafety
// analyzer: no mpi.Comm method call may be reachable from a spawned
// goroutine — only the rank goroutine advances the virtual clock. The
// fixture imports the real communicator so receiver matching is
// type-accurate.
package commsafety

import (
	"commsafety/commhelper"

	"repro/internal/mpi"
)

// Direct violation in a goroutine literal.
func badLiteral(c *mpi.Comm) {
	go func() {
		_ = c.Barrier() // want `mpi.Comm.Barrier reachable from the goroutine`
	}()
}

// Violation through a same-package call chain: the goroutine calls
// helper, helper calls chargeAll, chargeAll touches the communicator.
func badTransitive(c *mpi.Comm) {
	go helper(c)
}

func helper(c *mpi.Comm)    { chargeAll(c) }
func chargeAll(c *mpi.Comm) { c.Compute(1.0) } // want `mpi.Comm.Compute reachable from the goroutine`

// Violation across a package boundary: the communicator call lives in
// commhelper, invisible without the call-graph summary; the diagnostic
// lands on the crossing call and quotes the operation it arrives at.
func badCrossPackage(c *mpi.Comm) {
	go commhelper.ChargeAll(c) // want `mpi.Comm.Compute reachable from the goroutine spawned at .* via commhelper.ChargeAll`
}

// The rank goroutine itself may use the communicator freely, including
// inside function literals it calls synchronously.
func goodRankGoroutine(c *mpi.Comm) error {
	charge := func() { c.Compute(2.0) }
	charge()
	return c.Barrier()
}

// Arguments of a go statement are evaluated synchronously by the
// spawner, so the Rank call here runs on the rank goroutine: only the
// spawned body is checked.
func goodArgEvaluation(c *mpi.Comm, sink func(int)) {
	go sink(c.Rank())
}

// The escape hatch: deferred charging on the rank goroutine is the sanctioned
// pattern, but a site that genuinely must touch the communicator
// off-goroutine documents why.
func allowedSite(c *mpi.Comm) {
	go func() {
		c.Compute(3.0) //vet:allow commsafety — fixture: pretend this is a watchdog-owned side channel
	}()
}
