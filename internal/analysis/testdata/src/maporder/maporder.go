// Package maporder is the analysistest fixture for the maporder
// analyzer: map iteration order is random per run, so a loop body with
// an order-sensitive effect (appends to frame/send buffers, float
// accumulation, emitted output) is nondeterministic across runs and
// ranks.
package maporder

import (
	"bytes"
	"sort"

	"repro/internal/mpi"
	"repro/internal/simtime"
)

// Appending payloads in map order builds a different frame each run.
func badFrameAppend(cells map[int][]byte) []byte {
	var frame []byte
	for _, payload := range cells { // want `append to frame records elements in map order`
		frame = append(frame, payload...)
	}
	return frame
}

// Float accumulation rounds differently under reordering — the virtual
// clock stops being bitwise reproducible.
func badFloatSum(costs map[int]float64) float64 {
	var total float64
	for _, c := range costs { // want `total \+= on non-integer total accumulates in map order`
		total += c
	}
	return total
}

// Charging the communicator per entry advances the virtual clock in map
// order (the joinCells bug class).
func badCommCharge(c *mpi.Comm, costs map[int]float64) {
	for _, d := range costs { // want `call on the communicator`
		c.Charge(simtime.Query, d)
	}
}

// Emitting output in map order writes a different stream each run.
func badEmit(out *bytes.Buffer, names map[int]string) {
	for _, n := range names { // want `emits output in map order`
		out.WriteString(n)
	}
}

// The collect-then-sort idiom is the sanctioned fix and is not flagged.
func goodSortedKeys(cells map[int][]byte) []byte {
	ids := make([]int, 0, len(cells))
	for id := range cells {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var frame []byte
	for _, id := range ids {
		frame = append(frame, cells[id]...)
	}
	return frame
}

// Order-insensitive bodies are fine: integer counters and bitmasks
// commute exactly, per-key stores into another map or a slice indexed
// by the key cannot collide, and delete on the ranged map is sanctioned
// by the spec.
func goodAccumulate(cells map[int][]byte, drop map[int]bool) (int, uint64) {
	count := 0
	var mask uint64
	sizes := make(map[int]int, len(cells))
	flat := make([]int, 1024)
	for id, payload := range cells {
		count += len(payload)
		mask |= 1 << uint(id%64)
		sizes[id] = len(payload)
		flat[id%1024] = len(payload)
		if drop[id] {
			delete(drop, id)
		}
	}
	return count, mask
}

// The escape hatch, for loops whose order-sensitivity is intended (a
// randomized sampler, say) or externally sorted.
func allowedLoop(cells map[int][]byte) []byte {
	var frame []byte
	//vet:allow maporder — fixture: order intentionally irrelevant, consumer hashes the set
	for _, payload := range cells {
		frame = append(frame, payload...)
	}
	return frame
}
