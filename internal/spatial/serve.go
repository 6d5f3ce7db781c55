// Resident query serving: the rank-side loop that keeps the per-cell
// indexes standing behind a serve.Service instead of evaluating one batch
// and exiting. The evaluation core is the same serve.Session the batch
// workloads wrap (queryCells/joinCells), so a served request and its batch
// twin produce identical answers and — when the service records them —
// identical virtual-clock charges.
package spatial

import (
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/rtree"
	"repro/internal/serve"
	"repro/internal/simtime"
)

// Serve runs this rank's share of a resident query service over finished
// cell trees: it registers a Session with svc, parks until svc.Close()
// (channel-based — no virtual time passes and no MPI operation is pending,
// so the runtime counts the rank as running), then replays exactly what svc's
// recorder holds. A default Service records nothing, so serving advances
// the clock by nothing (Breakdown.Refine == 0) and the service's memory
// does not grow with the requests it answers. On a Service with the replay
// recorder installed (serve.Service.Record — the equivalence harnesses),
// the recorded virtual-clock costs of every request this rank served are
// charged at this single program point, in ascending request-id order:
// clients numbering requests by batch index then leave the clock bitwise
// where the batch RangeQuery over the same queries would have — however
// many clients evaluated them and however the scheduler interleaved them.
// The drain reads the record once, right after WaitClosed: clients of a
// recording Service return from Range before Close is called.
//
// Client goroutines drive svc.Range concurrently from outside the MPI
// world and must never touch a Comm; the rank goroutines touch svc only
// through Register and the post-Close drain. All ranks must call Serve
// collectively, and some client must eventually call svc.Close() or every
// rank parks forever. Returns this rank's served-work breakdown: Pairs,
// Refine (the replay's Query kind) and Total (its elapsed virtual time).
func Serve(c *mpi.Comm, svc *serve.Service, g grid.Partition, trees map[int]*rtree.Tree[geom.Geometry], opt JoinOptions) Breakdown {
	sp := begin(c)
	svc.Register(c.Rank(), querySession(c, g, trees, opt))
	svc.WaitClosed()

	var bd Breakdown
	for _, d := range svc.DrainCharges(c.Rank()) {
		c.Charge(simtime.Query, d)
	}
	bd.Pairs = svc.Stats(c.Rank()).Pairs
	sp.end(&bd)
	return bd
}

// ServeQuery is RangeQuery's resident sibling: the same partition,
// exchange, and per-phase index build (identical virtual-clock trajectory),
// but instead of evaluating a replicated query batch it hands the finished
// trees to Serve and parks until the service closes (the query phase costs
// virtual time only on a recording Service; see Serve). The partition must be
// known up front — JoinOptions.Partition or a non-empty
// JoinOptions.Envelope — because a resident service cannot derive the
// world from queries it has not seen yet. All ranks must call it
// collectively.
func ServeQuery(c *mpi.Comm, localData []geom.Geometry, svc *serve.Service, opt JoinOptions) (Breakdown, error) {
	_, _, bd, err := runIndex(c, opt, nil, &source{local: localData},
		func(g grid.Partition, trees map[int]*rtree.Tree[geom.Geometry], bd *Breakdown) {
			bd.Pairs = Serve(c, svc, g, trees, opt).Pairs
		})
	return bd, err
}
