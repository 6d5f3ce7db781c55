package mpi

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/simtime"
)

// Op is a reduction operator over typed buffers, the reproduction of
// MPI_Op. The function combines count elements: inout[i] = fn(in[i],
// inout[i]) where the left operand comes from the lower-ranked partial —
// operators may be non-commutative but must be associative (paper §4.2.2),
// and the reduction trees below preserve rank order.
type Op struct {
	name        string
	commutative bool
	fn          func(in, inout []byte, count int, dt *Datatype) error
}

// OpCreate registers a user-defined reduction operator, the equivalent of
// MPI_Op_create. The paper defines MPI_UNION this way for geometric union
// of MBRs.
func OpCreate(name string, commutative bool, fn func(in, inout []byte, count int, dt *Datatype) error) *Op {
	return &Op{name: name, commutative: commutative, fn: fn}
}

// Name returns the operator's display name.
func (o *Op) Name() string { return o.name }

// Commutative reports whether operand order is irrelevant.
func (o *Op) Commutative() bool { return o.commutative }

// apply runs the operator and charges the modeled combine cost. A failing
// operator aborts the world — the MPI_ERRORS_ARE_FATAL default — because a
// mid-collective error on one rank would otherwise strand its peers in
// their blocking sends and receives.
func (c *Comm) applyOp(op *Op, in, inout []byte, count int, dt *Datatype) error {
	if err := op.fn(in, inout, count, dt); err != nil {
		err = fmt.Errorf("mpi: op %s: %w", op.name, err)
		c.world.abort(err)
		return err
	}
	c.clock.Advance(simtime.Transport, c.world.opByteCost*float64(count*dt.Size()))
	return nil
}

// validate dry-runs the operator on zero elements, surfacing op/datatype
// incompatibilities before any communication so every rank of a collective
// fails symmetrically instead of stranding peers mid-tree.
func (o *Op) validate(dt *Datatype) error {
	if err := o.fn(nil, nil, 0, dt); err != nil {
		return fmt.Errorf("mpi: op %s incompatible with %s: %w", o.name, dt.Name(), err)
	}
	return nil
}

// numericOp builds an operator applying a float64 fold element-wise; it
// requires the Float64 datatype.
func numericOp(name string, fold func(a, b float64) float64) *Op {
	return OpCreate(name, true, func(in, inout []byte, count int, dt *Datatype) error {
		if dt.Size() != 8 {
			return fmt.Errorf("operator %s requires a doubled-sized type, got %s", name, dt.Name())
		}
		for i := 0; i < count; i++ {
			a := math.Float64frombits(binary.LittleEndian.Uint64(in[i*8:]))
			b := math.Float64frombits(binary.LittleEndian.Uint64(inout[i*8:]))
			binary.LittleEndian.PutUint64(inout[i*8:], math.Float64bits(fold(a, b)))
		}
		return nil
	})
}

// Predefined numeric reduction operators over Float64 buffers.
var (
	OpSumFloat64 = numericOp("MPI_SUM", func(a, b float64) float64 { return a + b })
	OpMinFloat64 = numericOp("MPI_MIN", math.Min)
	OpMaxFloat64 = numericOp("MPI_MAX", math.Max)
)

// OpSumInt64 folds int64 buffers element-wise.
var OpSumInt64 = OpCreate("MPI_SUM_INT64", true, func(in, inout []byte, count int, dt *Datatype) error {
	if dt.Size() != 8 {
		return fmt.Errorf("MPI_SUM_INT64 requires an 8-byte type, got %s", dt.Name())
	}
	for i := 0; i < count; i++ {
		a := int64(binary.LittleEndian.Uint64(in[i*8:]))
		b := int64(binary.LittleEndian.Uint64(inout[i*8:]))
		binary.LittleEndian.PutUint64(inout[i*8:], uint64(a+b))
	}
	return nil
})
