// Package clock is a deliberately broken fixture module: CheckModule must
// report a finding on it (driver regression test).
package clock

import "time"

// Stamp reads the wall clock in an internal package — the no-time-import
// rule the driver must catch.
func Stamp() int64 {
	return time.Now().UnixNano()
}
